import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinal_unloc import bench
from ordinal_unloc.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    kendall_tau,
    result_to_csv,
    result_to_json,
    rss_comparison_suite,
    run_benchmark,
    run_trial,
    toa_comparison_suite,
)
from ordinal_unloc.core import ConfigError, InputError
from ordinal_unloc.unfold import SolverOptions, solve_unfolding
from reference_solvers import oracle_bound

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


def test_kendall_tau_perfect_and_reversed():
    assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0


def test_kendall_tau_worked_example():
    # pairs: (1,2)c (1,3)c (2,3)d over 3 pairs -> (2 - 1) / 3
    assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)


def test_kendall_tau_ties_contribute_zero():
    # one tied pair in v out of 3 pairs, others concordant
    assert kendall_tau([1, 2, 3], [1, 1, 2]) == pytest.approx(2 / 3)


def test_kendall_tau_validation():
    with pytest.raises(InputError):
        kendall_tau([1.0], [2.0])
    with pytest.raises(InputError):
        kendall_tau([1, 2], [1, 2, 3])


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
    assert np.float64(kendall_tau(u, v)).tobytes() == np.float64(expected).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=2**31))
def test_kendall_tau_bounds_and_antisymmetry(n, seed):
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=n), rng.normal(size=n)
    t = kendall_tau(u, v)
    assert -1.0 <= t <= 1.0
    assert kendall_tau(u, -v) == pytest.approx(-t)
    assert kendall_tau(u, u) == 1.0


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="ordinal", trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="ordinal", anchor_counts=())
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="ordinal", noise_grid=(-0.1,))
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="toa", noise_grid=(0.0,))


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


def test_rss_suite_genie_is_exact():
    cfg = _small("rss", anchor_counts=(6,), trials=10)
    result = rss_comparison_suite(cfg)
    genie = result.methods.index("unloc_genie")
    assert result.rmse[0, genie] < 1e-9
    np.testing.assert_allclose(result.mean_tau[0, genie], 1.0)


def test_rss_suite_kind_guard():
    with pytest.raises(ConfigError):
        rss_comparison_suite(_small("ordinal"))
    with pytest.raises(ConfigError):
        toa_comparison_suite(_small("rss"))


def test_toa_suite_noise_trend():
    cfg = _small("toa", anchor_counts=(8,), noise_grid=(0.01, 10.0), trials=15)
    result = toa_comparison_suite(cfg)
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
    """One batched solve per trial gives the bytes of every problem solved
    on its own, at a cost no oracle beats."""
    config = _small(kind, anchor_counts=(3, 5, 8), n_targets=2)
    solved = []

    def recording(problems, opts):
        results = solve_unfolding(problems, opts)
        solved.extend(zip(problems, results))
        return results

    monkeypatch.setattr(bench, "solve_unfolding", recording)
    for t in range(3):
        run_trial(config, t)
    assert len(solved) == 3 * len(config.grid()) * len(config.methods) * 2
    for problem, result in solved:
        (alone,) = solve_unfolding([problem], config.solver)
        assert result.position.tobytes() == alone.position.tobytes()
        assert result.cost == alone.cost and result.converged == alone.converged
        assert result.cost <= oracle_bound(problem.anchors, problem.delta)
