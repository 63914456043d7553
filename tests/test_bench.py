import json
import threading
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinal_unloc import bench, unfold
from ordinal_unloc.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    _stacked_tau,
    result_to_csv,
    result_to_json,
    run_benchmark,
    run_trial,
)
from ordinal_unloc.core import (
    ComparisonTensor,
    ConfigError,
    DistanceMatrix,
    InputError,
    OrdinalUnlocError,
)
from ordinal_unloc.funclearn import EstimatedDistanceMatrix
from ordinal_unloc.ordinal import ComparisonNoiseModel
from ordinal_unloc.unfold import (
    LocalizationResult,
    SolverOptions,
    solve_unfolding_arrays,
    unloc_localize,
)
import reference_solvers
from reference_solvers import oracle_bound, reference_run_trial

FAST_SOLVER = SolverOptions(restarts=4)


def _small(kind, **kw):
    defaults = dict(
        kind=kind,
        anchor_counts=(5, 8),
        trials=8,
        seed=123,
        solver=FAST_SOLVER,
    )
    if kind == "ordinal":
        defaults["noise_grid"] = (0.0, 0.3)
    elif kind == "toa":
        defaults["noise_grid"] = (0.01, 1.0)
        defaults["field_side"] = 50.0
    else:
        defaults["field_side"] = 10.0
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def _tau(u, v):
    """The trials' Kendall tau of two vectors."""
    return float(_stacked_tau(np.asarray(u, dtype=float), np.asarray(v, dtype=float)))


def test_kendall_tau_perfect_and_reversed():
    assert _tau([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert _tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0


def test_kendall_tau_worked_example():
    # pairs: (1,2)c (1,3)c (2,3)d over 3 pairs -> (2 - 1) / 3
    assert _tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)


def test_kendall_tau_ties_contribute_zero():
    # one tied pair in v out of 3 pairs, others concordant
    assert _tau([1, 2, 3], [1, 1, 2]) == pytest.approx(2 / 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**31))
def test_kendall_tau_matches_upper_triangle_formula(n, seed):
    rng = np.random.default_rng(seed)
    # few distinct values, so many pairs are tied in one vector or both
    u = rng.integers(0, 4, n).astype(float)
    v = rng.integers(0, 1 + n // 2, n) * 0.1
    du = np.sign(u[:, None] - u[None, :])
    dv = np.sign(v[:, None] - v[None, :])
    iu = np.triu_indices(n, k=1)
    expected = float((du * dv)[iu].sum() / (n * (n - 1) / 2))
    assert np.float64(_tau(u, v)).tobytes() == np.float64(expected).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=2**31))
def test_kendall_tau_bounds_and_antisymmetry(n, seed):
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=n), rng.normal(size=n)
    t = _tau(u, v)
    assert -1.0 <= t <= 1.0
    assert _tau(u, -v) == pytest.approx(-t)
    assert _tau(u, u) == 1.0


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="ordinal", trials=0)
    for counts in ((), (1,), (5, 1)):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="ordinal", anchor_counts=counts)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="ordinal", noise_grid=(-0.1,))
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="toa", noise_grid=(0.0,))
    for bad in (
        dict(field_side=np.inf),
        dict(propagation_speed=0.0),
        dict(calibration_exponent=np.nan),
        dict(exponent_low=1.0, exponent_high=3.0),
        dict(exponent_low=6.0, exponent_high=2.0),
        dict(exponent_high=np.inf),
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="rss", **bad)


def test_grid_shapes():
    cfg = _small("ordinal")
    assert cfg.grid() == ((5, 0.0), (5, 0.3), (8, 0.0), (8, 0.3))
    rss = _small("rss")
    assert rss.grid() == ((5, None), (8, None))
    assert rss.methods == ("ordinal_unloc", "unloc_fixed_g", "unloc_genie")


def test_run_trial_deterministic():
    cfg = _small("ordinal", trials=1)
    a = run_trial(cfg, 0)
    b = run_trial(cfg, 0)
    np.testing.assert_array_equal(a.sq_err, b.sq_err)
    np.testing.assert_array_equal(a.tau, b.tau)
    c = run_trial(cfg, 1)
    assert not np.array_equal(a.sq_err, c.sq_err)


def test_trials_differ_across_kinds_with_same_seed():
    ordinal = run_trial(_small("ordinal", trials=1), 0)
    toa = run_trial(_small("toa", trials=1), 0)
    # independent streams per experiment kind
    assert not np.array_equal(ordinal.sq_err[:, 0], toa.sq_err[:, 0])


def test_ordinal_benchmark_trends():
    cfg = _small("ordinal", anchor_counts=(5, 15), noise_grid=(0.0, 0.5), trials=30)
    result = run_benchmark(cfg)
    rmse = result.rmse[:, 0].reshape(2, 2)  # (m, sigma)
    tau = result.mean_tau[:, 0].reshape(2, 2)
    # noiseless comparisons give perfect distance ordering
    np.testing.assert_allclose(tau[:, 0], 1.0)
    # error grows with comparison noise at fixed anchor count
    assert rmse[1, 1] > rmse[1, 0]
    # more anchors help at fixed noise
    assert rmse[1, 0] < rmse[0, 0]
    assert not result.unreliable.any()


def test_threaded_reduction_matches_serial():
    cfg = _small("ordinal", anchor_counts=(5,), noise_grid=(0.3,), trials=6)
    serial = run_benchmark(cfg, threads=1)
    threaded = run_benchmark(cfg, threads=2)
    np.testing.assert_array_equal(serial.rmse, threaded.rmse)
    np.testing.assert_array_equal(serial.mean_tau, threaded.mean_tau)
    np.testing.assert_array_equal(serial.flagged_fraction, threaded.flagged_fraction)


def test_process_pool_is_capped_by_trials_and_cpus(monkeypatch):
    """A large ``threads`` starts no more workers than there are trials or
    CPUs the process may run on, and one usable CPU starts no pool.  The
    recorder stands in for the pool and starts no process."""
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", Recorder)
    cfg = _small("ordinal", anchor_counts=(5,), noise_grid=(0.3,), trials=3)
    serial = run_benchmark(cfg, threads=1)
    assert sizes == []
    capped = run_benchmark(cfg, threads=5000)
    assert all(size <= 3 for size in sizes)
    assert result_to_csv(capped) == result_to_csv(serial)
    sizes.clear()
    monkeypatch.setattr(bench, "_usable_cpus", lambda: 8)
    run_benchmark(cfg, threads=5000)
    run_benchmark(_small("ordinal", anchor_counts=(5,), noise_grid=(0.3,), trials=20), 5000)
    assert sizes == [3, 8]
    monkeypatch.setattr(bench, "_usable_cpus", lambda: 1)
    run_benchmark(cfg, threads=5000)
    assert sizes == [3, 8]


def test_rss_suite_genie_is_exact():
    cfg = _small("rss", anchor_counts=(6,), trials=10)
    result = run_benchmark(cfg)
    genie = result.methods.index("unloc_genie")
    assert result.rmse[0, genie] < 1e-9
    np.testing.assert_allclose(result.mean_tau[0, genie], 1.0)


def test_toa_suite_noise_trend():
    cfg = _small("toa", anchor_counts=(8,), noise_grid=(0.01, 10.0), trials=15)
    result = run_benchmark(cfg)
    unloc = result.methods.index("unloc")
    # direct inversion degrades sharply with the normalized variance
    assert result.rmse[1, unloc] > result.rmse[0, unloc]


def test_csv_round_trip_structure():
    cfg = _small("ordinal", trials=3)
    result = run_benchmark(cfg)
    text = result_to_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(result.grid) * len(result.methods)
    row = lines[1].split(",")
    assert row[0] == "5" and row[2] == "ordinal_unloc"
    # float fields parse back
    float(row[3])
    float(row[5])


def test_csv_byte_stable_across_runs():
    cfg = _small("ordinal", trials=4)
    assert result_to_csv(run_benchmark(cfg)) == result_to_csv(run_benchmark(cfg, threads=2))


def test_json_payload():
    cfg = _small("toa", trials=3)
    payload = json.loads(result_to_json(run_benchmark(cfg)))
    assert payload["kind"] == "toa"
    assert payload["config"]["seed"] == 123
    assert set(payload["curves"]) == {"ordinal_unloc", "unloc"}
    assert len(payload["curves"]["unloc"]["rmse"]) == len(payload["grid"])
    assert any("anchor-to-target" in note for note in payload["notes"])


@pytest.mark.parametrize("kind", ["ordinal", "rss", "toa"])
def test_trial_batch_matches_problems_solved_alone(monkeypatch, kind):
    """Exactly one batched solve per trial gives the bytes of every problem
    solved on its own, at a cost no oracle beats."""
    config = _small(kind, anchor_counts=(3, 5, 8), n_targets=2)
    solved, calls = [], []

    def recording(anchors, delta, counts):
        results = solve_unfolding_arrays(anchors, delta, counts)
        bounds = np.cumsum(counts)[:-1]
        problems = zip(np.split(anchors, bounds), np.split(delta, bounds))
        solved.extend(zip(problems, *results))
        calls.append(len(counts))
        return results

    monkeypatch.setattr(unfold, "solve_unfolding_arrays", recording)
    for t in range(3):
        run_trial(config, t)
    monkeypatch.undo()
    assert calls == [len(config.grid()) * len(config.methods) * 2] * 3
    for (anchors, delta), position, cost, _, converged in solved:
        alone = unloc_localize(anchors, delta)
        assert position.tobytes() == alone.position.tobytes()
        assert cost == alone.cost and converged == alone.converged
        assert cost <= oracle_bound(anchors, delta)


@pytest.mark.parametrize("kind", ["ordinal", "rss", "toa"])
def test_run_trial_ignores_solver_options(kind):
    """``ExperimentConfig.solver`` is accepted but not read: any
    ``SolverOptions`` gives the outcome bytes of the default."""
    default = _small(kind, n_targets=2, solver=SolverOptions())
    other = _small(kind, n_targets=2, solver=SolverOptions(restarts=1, seed=9))
    for t in range(3):
        got, expected = run_trial(other, t), run_trial(default, t)
        for name in ("sq_err", "tau", "flagged"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()


@pytest.mark.parametrize("kind", ["ordinal", "rss", "toa"])
def test_run_trial_matches_per_grid_point_reference(kind):
    """Stacked, tensor-free estimation gives the bytes of the trial computed
    one grid point at a time through the comparison tensor."""
    configs = [
        # an anchor count listed twice puts both of its entries in one group
        _small(kind, anchor_counts=(5, 8, 5), n_targets=2),
        _small(kind, anchor_counts=(2, 3, 20), n_targets=1, seed=9),
    ]
    if kind != "rss":
        configs.append(_small(kind, noise_grid=(0.05, 0.5, 2.0, 5.0), seed=10))
    for config in configs:
        for t in range(6):
            got, expected = run_trial(config, t), reference_run_trial(config, t)
            assert got.sq_err.tobytes() == expected.sq_err.tobytes()
            assert got.tau.tobytes() == expected.tau.tobytes()
            assert got.flagged.tobytes() == expected.flagged.tobytes()


class _Unspawnable(np.random.SeedSequence):
    def spawn(self, n_children):
        raise AssertionError("a seed sequence was spawned")


@pytest.mark.parametrize("kind", ["ordinal", "rss", "toa"])
def test_run_trial_builds_one_generator(monkeypatch, kind):
    """A trial draws everything from one generator, keyed by the seed, the
    kind and the trial index, and spawns no child stream."""
    config = _small(kind, anchor_counts=(5, 8, 5))
    expected = run_trial(config, 3)
    built = []
    default_rng = np.random.default_rng

    def counting(seed=None):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "SeedSequence", _Unspawnable)
    monkeypatch.setattr(np.random, "default_rng", counting)
    got = run_trial(config, 3)
    assert len(built) == 1 and type(built[0]) is _Unspawnable
    assert built[0].spawn_key == (bench._EXPERIMENT_IDS[kind], 3)
    assert built[0].entropy == config.seed
    for name in ("sq_err", "tau", "flagged"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()


@pytest.mark.parametrize("kind", ["ordinal", "rss", "toa"])
def test_run_trial_builds_no_comparison_tensor(monkeypatch, kind):
    def refuse(self):
        raise AssertionError("a comparison tensor was built")

    monkeypatch.setattr(ComparisonTensor, "__post_init__", refuse)
    outcome = run_trial(_small(kind), 0)
    assert np.isfinite(outcome.sq_err).all()


@pytest.mark.parametrize("kind", ["ordinal", "rss", "toa"])
def test_run_trial_builds_no_per_grid_point_objects(monkeypatch, kind):
    def refuse(self):
        raise AssertionError(f"a {type(self).__name__} was built")

    for cls in (
        DistanceMatrix,
        ComparisonNoiseModel,
        EstimatedDistanceMatrix,
        LocalizationResult,
    ):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    outcome = run_trial(_small(kind, anchor_counts=(2, 5, 5), n_targets=2), 0)
    assert np.isfinite(outcome.sq_err).all()


def _recorded(run, *args):
    """The outcome (or the exception) of run(*args) and the category
    counts of every warning it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = run(*args)
        except OrdinalUnlocError as exc:
            outcome = exc
    return outcome, Counter(w.category.__name__ for w in caught)


@pytest.mark.parametrize("kind", ["ordinal", "rss", "toa"])
def test_run_trial_warns_as_the_reference(kind):
    """The stacked trial emits the warnings of the per-grid-point trial:
    one IllPosedWarning per problem below q + 1 anchors and each
    DegenerateFitWarning of a fit, with the same outcome bytes."""
    noise = {"ordinal": (5.0,), "toa": (5.0,), "rss": ()}[kind]
    configs = [
        _small(kind, anchor_counts=(2, 3), n_targets=2, seed=5),
        _small(kind, anchor_counts=(2, 3, 4), noise_grid=noise, seed=6),
    ]
    seen = Counter()
    for config in configs:
        for t in range(8):
            got, got_warnings = _recorded(run_trial, config, t)
            expected, expected_warnings = _recorded(reference_run_trial, config, t)
            assert got_warnings == expected_warnings
            for name in ("sq_err", "tau", "flagged"):
                assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
            seen += got_warnings
    assert seen["IllPosedWarning"] > 0 and seen["DegenerateFitWarning"] > 0


def test_fig3_trial_starts_no_thread(monkeypatch):
    """A fig3 stack of comparisons (4 noise levels of 21 sensors) is one
    block, so its noise is drawn without the helper thread."""

    def no_thread(thread):
        raise AssertionError("run_trial started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    config = ExperimentConfig(kind="ordinal", trials=1, solver=FAST_SOLVER)
    assert max(config.anchor_counts) + config.n_targets == 21
    outcome = run_trial(config, 0)
    assert outcome.sq_err.shape == (len(config.grid()), len(config.methods))


def test_run_trial_rejects_nonfinite_direct_estimates_as_the_reference():
    """Powers that underflow to 0 give infinite fixed-calibration and genie
    estimates; both trials raise a numerical failure on them, not an input
    error, and numpy warns nothing."""
    config = _small("rss", field_side=1e30, exponent_low=12.0, exponent_high=12.0, trials=1)
    got, got_warnings = _recorded(run_trial, config, 0)
    expected, _ = _recorded(reference_run_trial, config, 0)
    for error in (got, expected):
        assert type(error) is OrdinalUnlocError and "received power underflowed" in str(error)
    assert str(got) == str(expected)
    assert got_warnings["RuntimeWarning"] == 0


def test_unsolved_ordinal_columns_score_as_the_reference(monkeypatch):
    """Estimates whose squares overflow leave their columns unsolved: a grid
    point is flagged and scored over its solved columns, or NaN when none
    is solved, as the per-grid-point trial scores it."""

    def overflowing(values, m):
        # column 0 everywhere, and every column at 5 anchors
        values = values.copy()
        values[..., slice(None) if m == 5 else 0] *= 1e160
        return values

    stack = bench.estimate

    def stacked(row_sums, d_y):
        estimates, failed = stack(row_sums, d_y)
        return overflowing(estimates, d_y.shape[-1]), failed

    alone = reference_solvers.estimate_distances

    def single(psi, d_y):
        d_hat = alone(psi, d_y)
        values = overflowing(d_hat.values, d_hat.n_anchors)
        return EstimatedDistanceMatrix(values, d_hat.flagged_anchors)

    monkeypatch.setattr(bench, "estimate", stacked)
    monkeypatch.setattr(reference_solvers, "estimate_distances", single)
    config = _small("ordinal", n_targets=3)
    for t in range(4):
        got, expected = run_trial(config, t), reference_run_trial(config, t)
        for name in ("sq_err", "tau", "flagged"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
        assert got.flagged.all()
        five = np.array([m == 5 for m, _ in config.grid()])
        assert np.isnan(got.sq_err[five]).all() and np.isfinite(got.sq_err[~five]).all()
