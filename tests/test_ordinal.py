import copy
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_field_distances
from ordinal_unloc import ordinal, pipeline
from ordinal_unloc.core import DistanceMatrix, InputError
from ordinal_unloc.ordinal import (
    ComparisonNoiseModel,
    SignalMatrix,
    SliceCoverageWarning,
    distance_row_sums,
    pair_indices,
    signal_row_sums,
    tensor_from_distances,
    tensor_from_signals,
)
from ordinal_unloc.rank import aggregate_proximities, proximity_scores
from reference_solvers import (
    dense_comparisons,
    dense_stack_noise,
    dense_tensor_from_distances,
    dense_tensor_from_signals,
)


def test_negative_sigma_rejected():
    with pytest.raises(Exception):
        ComparisonNoiseModel(-0.1)


@pytest.mark.parametrize("sigma", [np.nan, np.inf])
def test_nonfinite_sigma_rejected(sigma):
    with pytest.raises(InputError, match="finite"):
        ComparisonNoiseModel(sigma)


def _line_distances():
    # sensors at 0, 1, 3 on a line
    pts = np.array([0.0, 1.0, 3.0])
    d = np.abs(pts[:, None] - pts[None, :])
    return DistanceMatrix(d, 2)


def test_tensor_noiseless_collinear():
    rows = tensor_from_distances(_line_distances(), ComparisonNoiseModel(0.0)).row_sums
    # row i of slice k counts the sensors farther from k than i minus the
    # sensors closer to k than i
    # slice 0 (reference at position 0): d = (0, 1, 3)
    np.testing.assert_array_equal(rows[0], [-2, 0, 2])
    # slice 1 (reference at 1): d = (1, 0, 2)
    np.testing.assert_array_equal(rows[1], [0, -2, 2])
    # slice 2 (reference at 3): d = (3, 2, 0)
    np.testing.assert_array_equal(rows[2], [2, 0, -2])


def test_tensor_noiseless_matches_true_ordering():
    rng = np.random.default_rng(11)
    _, _, d = random_field_distances(rng, 6, 2)
    rows = tensor_from_distances(d, ComparisonNoiseModel(0.0)).row_sums
    n = d.order
    for k in range(n):
        expected = np.sign(d.values[:, k][:, None] - d.values[:, k][None, :])
        np.testing.assert_array_equal(rows[k], expected.sum(axis=1))


def test_tensor_determinism():
    rng = np.random.default_rng(5)
    _, _, d = random_field_distances(rng, 5, 1)
    noise = ComparisonNoiseModel(0.4)
    a = tensor_from_distances(d, noise, np.random.default_rng(9)).row_sums
    b = tensor_from_distances(d, noise, np.random.default_rng(9)).row_sums
    np.testing.assert_array_equal(a, b)
    c = tensor_from_distances(d, noise, np.random.default_rng(10)).row_sums
    assert not np.array_equal(a, c)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.floats(min_value=0.0, max_value=2.0),
    st.integers(min_value=0, max_value=2**31),
)
def test_tensor_skew_symmetry(m, sigma, seed):
    """Each slice is skew-symmetric, so its row sums sum to 0; the dense
    oracle, drawing the same noise, is skew-symmetric entry by entry."""
    rng = np.random.default_rng(seed)
    _, _, d = random_field_distances(rng, m, 1)
    oracle_rng = copy.deepcopy(rng)
    rows = tensor_from_distances(d, ComparisonNoiseModel(sigma), rng).row_sums
    assert np.all(rows.sum(axis=1) == 0)
    assert np.all(np.abs(rows) <= d.order - 1)
    z = dense_tensor_from_distances(d, ComparisonNoiseModel(sigma), oracle_rng)
    np.testing.assert_array_equal(z, -z.transpose(0, 2, 1))
    assert np.all(np.diagonal(z, axis1=1, axis2=2) == 0)
    np.testing.assert_array_equal(rows, z.sum(axis=2))


def _signal_matrix(values, increasing, m=2, missing=None):
    return SignalMatrix(values, increasing_with_distance=increasing, n_anchors=m, missing=missing)


def test_signals_rss_orientation():
    # stronger received power means closer: p_ik=0.9, p_jk=0.1
    s = np.array([[0.0, 0.5, 0.9], [0.5, 0.0, 0.1], [0.9, 0.1, 0.0]])
    rows = tensor_from_signals(_signal_matrix(s, increasing=False)).row_sums
    # sensor 0 closer to reference 2 than sensor 1; the reference's own
    # link is missing
    np.testing.assert_array_equal(rows[2], [-1, 1, 0])


def test_signals_toa_orientation():
    s = np.array([[0.0, 3.0, 2.0], [3.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    rows = tensor_from_signals(_signal_matrix(s, increasing=True)).row_sums
    np.testing.assert_array_equal(rows[2], [1, -1, 0])  # tau_0=2 > tau_1=1: 0 farther


def test_signals_tie_gives_zero():
    s = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    rows = tensor_from_signals(_signal_matrix(s, increasing=False)).row_sums
    np.testing.assert_array_equal(rows[0], [0, 0, 0])


def test_signals_missing_entries_and_warning():
    n = 4
    values = np.zeros((n, n))
    missing = np.ones((n, n), dtype=bool)
    # only one usable link
    values[0, 1] = values[1, 0] = -50.0
    missing[0, 1] = missing[1, 0] = False
    S = _signal_matrix(values, increasing=False, missing=missing)
    with pytest.warns(SliceCoverageWarning):
        rows = tensor_from_signals(S).row_sums
    assert np.all(rows == 0)
    with pytest.warns(SliceCoverageWarning):
        np.testing.assert_array_equal(rows, dense_tensor_from_signals(S).sum(axis=2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_signals_nonfinite_present_link_rejected(bad):
    values = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    values[1, 2] = values[2, 1] = bad
    with pytest.raises(InputError, match=r"at present link \(1, 2\) is not finite"):
        _signal_matrix(values, increasing=False)


def test_signals_nan_at_missing_link_accepted():
    values = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, np.nan], [2.0, np.nan, 0.0]])
    missing = np.zeros((3, 3), dtype=bool)
    missing[1, 2] = missing[2, 1] = True
    S = _signal_matrix(values, increasing=False, missing=missing)
    with pytest.warns(SliceCoverageWarning):
        rows = tensor_from_signals(S).row_sums
    assert np.all(rows[1] == 0) and np.all(rows[2] == 0)
    # 1.0 is weaker power than 2.0: sensor 1 farther
    np.testing.assert_array_equal(rows[0], [0, 1, -1])


@pytest.mark.parametrize("n", [2, 3])
def test_complete_small_signal_matrix_warns_nothing(n):
    """A slice's own link is no missing comparison: with every link
    present, no slice is sparse however few the sensors."""
    values = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])[:n, :n]
    S = _signal_matrix(values, increasing=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SliceCoverageWarning)
        tensor_from_signals(S)
        signal_row_sums(np.stack([values, values]), None, False)


def test_signals_asymmetric_rejected():
    values = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(Exception):
        _signal_matrix(values, increasing=False)


@pytest.mark.parametrize("scale", [1.0, 1e9])
def test_signal_symmetry_check_is_scale_free(scale):
    """The same readings in any unit pass or fail alike: the tolerance is
    relative only."""
    skewed = np.array([[0, 1e-9, 2e-9], [3e-9, 0, 5e-9], [6e-9, 1e-9, 0]]) * scale
    with pytest.raises(InputError, match="^signal matrix must be symmetric where present$"):
        _signal_matrix(skewed, increasing=False)
    with pytest.raises(InputError, match="^signal matrix must be symmetric where present$"):
        signal_row_sums(skewed[None], None, False)
    values = np.array([[0, 1e-9, 2e-9], [1e-9, 0, 5e-9], [2e-9, 5e-9, 0]]) * scale
    # a relative 1e-5 apart still passes
    values[0, 1] *= 1 + 5e-6
    S = _signal_matrix(values, increasing=False)
    np.testing.assert_array_equal(S.values, values)


@pytest.mark.parametrize("m", [-1, 4, 5])
def test_signal_matrix_anchor_count_out_of_range(m):
    values = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    with pytest.raises(InputError, match="^anchor count out of range for signal matrix$"):
        _signal_matrix(values, increasing=False, m=m)
    for m in (0, 3):
        assert _signal_matrix(values, increasing=False, m=m).n_anchors == m


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=7), st.integers(min_value=0, max_value=2**31))
def test_monotone_invariance(m, seed):
    """Tensors are invariant under strictly monotone re-parameterization."""
    rng = np.random.default_rng(seed)
    _, _, d = random_field_distances(rng, m, 1)
    base = np.maximum(d.values, 1e-9)
    increasing = _signal_matrix(base, increasing=True, m=m)
    transformed = _signal_matrix(np.exp(2.0 * base) + 1.0, increasing=True, m=m)
    np.testing.assert_array_equal(
        tensor_from_signals(increasing).row_sums, tensor_from_signals(transformed).row_sums
    )
    # a decreasing transform with the flag flipped is also identical
    decreasing = _signal_matrix(1.0 / (base + 1.0), increasing=False, m=m)
    np.testing.assert_array_equal(
        tensor_from_signals(increasing).row_sums, tensor_from_signals(decreasing).row_sums
    )


def test_noiseless_tensor_from_distances_equals_signal_route():
    rng = np.random.default_rng(21)
    _, _, d = random_field_distances(rng, 5, 1)
    via_distances = tensor_from_distances(d, ComparisonNoiseModel(0.0)).row_sums
    sig = _signal_matrix(d.values, increasing=True, m=5)
    via_signals = tensor_from_signals(sig).row_sums
    # the signal route masks self-links (diagonal), the distance route keeps
    # them: in slice k the reference, at distance 0, is closer than every
    # other sensor, which adds 1 to each other row and -(N - 1) to row k
    n = d.order
    self_links = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(self_links, -(n - 1))
    np.testing.assert_array_equal(via_distances, via_signals + self_links)


def _with_coverage_warnings(build):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = build()
    return values, [str(w.message) for w in caught if w.category is SliceCoverageWarning]


# (N, slices per block); None keeps the module's block size.
_ORACLE_SIZES = [(1, None), (2, None), (3, None), (21, None), (21, 4), (110, None)]


def _set_block(monkeypatch, n, block_slices):
    if block_slices is not None:
        monkeypatch.setattr(ordinal, "_BLOCK_ELEMENTS", block_slices * n * n)


def test_oracle_sizes_end_on_partial_blocks(monkeypatch):
    for n, block_slices in [(110, None), (21, 4)]:
        _set_block(monkeypatch, n, block_slices)
        sizes = [b.stop - b.start for b in ordinal._slice_blocks(n, n)]
        assert len(sizes) > 1 and sizes[-1] < sizes[0] and sum(sizes) == n


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("n, block_slices", _ORACLE_SIZES)
def test_tensor_from_distances_matches_dense_oracle(monkeypatch, n, block_slices, sigma):
    _set_block(monkeypatch, n, block_slices)
    field_rng = np.random.default_rng(100 + n)
    pts = field_rng.uniform(size=(n, 2))
    d = DistanceMatrix(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)), 0)
    rng, oracle_rng = np.random.default_rng(n), np.random.default_rng(n)
    rows = tensor_from_distances(d, ComparisonNoiseModel(sigma), rng).row_sums
    expected = dense_tensor_from_distances(d, ComparisonNoiseModel(sigma), oracle_rng)
    assert rows.dtype == np.int64 and rows.shape == (n, n)
    assert rows.tobytes() == expected.sum(axis=2, dtype=np.int64).tobytes()
    # the generator is left where the single (N, N(N-1)/2) draw left it
    assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("increasing", [True, False])
@pytest.mark.parametrize("n, block_slices", _ORACLE_SIZES)
def test_tensor_from_signals_matches_dense_oracle(monkeypatch, n, block_slices, increasing):
    _set_block(monkeypatch, n, block_slices)
    rng = np.random.default_rng(200 + n)
    # coarse values tie often, and +0.0 / -0.0 compare equal
    values = np.round(rng.normal(size=(n, n)), 1)
    values = values + values.T
    values[values == 0] = rng.choice([0.0, -0.0], size=int((values == 0).sum()))
    for missing_rate in (0.0, 0.3, 0.7):
        missing = rng.uniform(size=(n, n)) < missing_rate
        missing |= missing.T
        with_gaps = np.where(missing, np.nan, values)
        S = SignalMatrix(with_gaps, increasing_with_distance=increasing, n_anchors=0, missing=missing)
        rows, messages = _with_coverage_warnings(lambda: tensor_from_signals(S).row_sums)
        expected, expected_messages = _with_coverage_warnings(lambda: dense_tensor_from_signals(S))
        assert rows.dtype == np.int64 and rows.shape == (n, n)
        assert rows.tobytes() == expected.sum(axis=2, dtype=np.int64).tobytes()
        assert messages == expected_messages


def _peak_bytes(build):
    tracemalloc.start()
    try:
        result = build()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


# what an int8 tensor of 200 sensors takes: N^3 bytes
_CUBE_BYTES = 200**3


def _field_of_200(seed):
    pts = np.random.default_rng(seed).uniform(size=(200, 2))
    return pts, DistanceMatrix(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)), 180)


@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_tensor_from_distances_peak_memory(sigma):
    _, d = _field_of_200(40)
    peak, tensor = _peak_bytes(
        lambda: tensor_from_distances(d, ComparisonNoiseModel(sigma), np.random.default_rng(1))
    )
    # block temporaries and the (N, N) row sums, no N^3 array
    assert peak < _CUBE_BYTES
    assert tensor.row_sums.shape == (200, 200) and not tensor.row_sums.flags.writeable


def test_tensor_from_signals_peak_memory():
    rng = np.random.default_rng(41)
    values = rng.normal(size=(200, 200))
    S = SignalMatrix(values + values.T, increasing_with_distance=True, n_anchors=180)
    peak, tensor = _peak_bytes(lambda: tensor_from_signals(S))
    assert peak < _CUBE_BYTES
    assert tensor.row_sums.shape == (200, 200)


def test_localize_from_tensor_peak_memory():
    pts, d = _field_of_200(42)
    tensor = tensor_from_distances(d, ComparisonNoiseModel(0.1), np.random.default_rng(1))
    peak, (results, d_hat) = _peak_bytes(lambda: pipeline.localize_from_tensor(tensor, pts[:180]))
    assert peak < _CUBE_BYTES
    assert len(results) == 20 and d_hat.values.shape == (180, 20)


# -- stacked row sums, against the dense tensor and the one-matrix route ---


def _dense_sums(z):
    return z.sum(axis=2, dtype=np.int64)


def _tensor_scores_bytes(tensor):
    return aggregate_proximities(tensor).tobytes()


def _field(n, seed):
    pts = np.random.default_rng(seed).uniform(size=(n, 2))
    return DistanceMatrix(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)), 0)


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("n, block_slices", _ORACLE_SIZES)
def test_distance_row_sums_match_tensor(monkeypatch, n, block_slices, sigma):
    _set_block(monkeypatch, n, block_slices)
    d = _field(n, 300 + n)
    noise = ComparisonNoiseModel(sigma)
    rng, tensor_rng = np.random.default_rng(n), np.random.default_rng(n)
    oracle_rng = np.random.default_rng(n)
    (rows,) = distance_row_sums(d.values[None], [sigma], rng)
    tensor = tensor_from_distances(d, noise, tensor_rng)
    assert rows.dtype == np.int64 and rows.shape == (n, n)
    z = dense_tensor_from_distances(d, noise, oracle_rng)
    np.testing.assert_array_equal(rows, _dense_sums(z))
    assert proximity_scores(rows).tobytes() == _tensor_scores_bytes(tensor)
    # the same draws were taken, so the generators stand at the same place
    assert rng.random() == tensor_rng.random() == oracle_rng.random()


@pytest.mark.parametrize("n, block_slices", [(1, None), (3, None), (21, None), (21, 4), (7, 3)])
def test_stacked_distance_row_sums_match_each_tensor(monkeypatch, n, block_slices):
    """The stack's noise is the dense oracle's single (G N, N(N-1)/2) draw
    from one generator, each matrix's rows scaled by its sigma (0
    included), whether or not a helper thread draws it and wherever the
    blocks cut the matrices; with every sigma 0 nothing is drawn."""
    _set_block(monkeypatch, n, block_slices)
    for sigmas in ((0.0, 0.3, 0.3, 0.0, 1.5), (0.0, 0.0)):
        blocks = len(ordinal._slice_blocks(len(sigmas) * n, n))
        for cpus in (1, 2):
            started = _started_threads(monkeypatch)
            monkeypatch.setattr(ordinal, "_usable_cpus", lambda: cpus)
            ds = [_field(n, 400 + n + g) for g in range(len(sigmas))]
            rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
            stacked = distance_row_sums(np.stack([d.values for d in ds]), sigmas, rng)
            assert stacked.shape == (len(sigmas), n, n)
            assert len(started) == int(cpus > 1 and blocks > 1 and max(sigmas) > 0)
            for g, draws in enumerate(dense_stack_noise(oracle_rng, sigmas, n)):
                np.testing.assert_array_equal(
                    stacked[g], _dense_sums(dense_comparisons(ds[g], draws))
                )
            # the same draws were taken, so the generators stand at the same place
            assert rng.random() == oracle_rng.random()


def test_block_workspace_does_not_leak(monkeypatch):
    """Each call fills its own block workspace: a tensor and an array of
    row sums keep their bytes after later calls, and a tensor owns its
    data."""
    _set_block(monkeypatch, 21, 4)
    d = _field(21, 600)
    noise = ComparisonNoiseModel(0.3)
    first = tensor_from_distances(d, noise, np.random.default_rng(1))
    first_bytes = first.row_sums.tobytes()
    (first_rows,) = distance_row_sums(d.values[None], [0.3], np.random.default_rng(1))
    kept_rows = first_rows.copy()
    distance_row_sums(np.stack([d.values] * 2), [0.3] * 2, np.random.default_rng(2))
    second = tensor_from_distances(d, noise, np.random.default_rng(3))
    assert second.row_sums.tobytes() != first_bytes
    assert first.row_sums.tobytes() == first_bytes
    np.testing.assert_array_equal(first_rows, kept_rows)
    np.testing.assert_array_equal(first.row_sums, first_rows)
    for tensor in (first, second):
        assert not tensor.row_sums.flags.writeable
        assert tensor.row_sums.flags.owndata and tensor.row_sums.base is None


# -- noise drawn ahead on a helper thread ---------------------------------


def _started_threads(monkeypatch):
    """Lets the helper run, as with two usable CPUs, and returns the list
    of every thread started from here on."""
    monkeypatch.setattr(ordinal, "_usable_cpus", lambda: 2)
    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def _route(route, d, rng):
    """Row sums of the threshold comparisons of d, through one route."""
    if route == "tensor":
        return tensor_from_distances(d, ComparisonNoiseModel(0.3), rng).row_sums
    (rows,) = distance_row_sums(d.values[None], [0.3], rng)
    return rows


@pytest.mark.parametrize("route", ["tensor", "row_sums"])
def test_prefetch_thread_is_joined_before_return(monkeypatch, route):
    _set_block(monkeypatch, 21, 4)
    started = _started_threads(monkeypatch)
    before = threading.active_count()
    _route(route, _field(21, 700), np.random.default_rng(1))
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before


@pytest.mark.parametrize("route", ["tensor", "row_sums"])
def test_prefetch_needs_a_second_cpu(monkeypatch, route):
    """On one CPU the draws cannot overlap the caller, so they are made
    inline, with the same result."""
    _set_block(monkeypatch, 21, 4)
    d = _field(21, 704)
    started = _started_threads(monkeypatch)
    with_helper = _route(route, d, np.random.default_rng(1))
    assert len(started) == 1

    def no_thread(thread):
        raise AssertionError("a thread was started on one CPU")

    monkeypatch.setattr(ordinal, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    np.testing.assert_array_equal(_route(route, d, np.random.default_rng(1)), with_helper)


@pytest.mark.parametrize("route", ["tensor", "row_sums"])
def test_prefetch_thread_is_joined_when_the_caller_raises(monkeypatch, route):
    """The caller fails in its second block; the helper is joined before
    the error leaves the call, although the traceback keeps the caller's
    frame alive."""
    _set_block(monkeypatch, 21, 4)
    function, calls = np.sign, []

    def failing_in_second_block(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("caller failed")
        return function(*args, **kwargs)

    monkeypatch.setattr(np, "sign", failing_in_second_block)
    started = _started_threads(monkeypatch)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="caller failed") as failure:
        _route(route, _field(21, 702), np.random.default_rng(1))
    assert failure.traceback and len(started) == 1
    assert not started[0].is_alive() and threading.active_count() == before


class _FailingGenerator:
    """Draws as ``rng`` does, but raises on the given call."""

    def __init__(self, rng, fail_on):
        self.rng, self.fail_on, self.calls = rng, fail_on, 0

    def standard_normal(self, out):
        self.calls += 1
        if self.calls == self.fail_on:
            raise RuntimeError("draw failed")
        return self.rng.standard_normal(out=out)


def test_prefetch_draw_error_reaches_the_caller(monkeypatch):
    _set_block(monkeypatch, 21, 4)
    started = _started_threads(monkeypatch)
    before = threading.active_count()
    # one matrix: one draw per block, so the second call is block 2's
    rng = _FailingGenerator(np.random.default_rng(1), fail_on=2)
    with pytest.raises(RuntimeError, match="draw failed"):
        distance_row_sums(_field(21, 703).values[None], [0.3], rng)
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before


@pytest.mark.parametrize("helper", [False, True], ids=["inline", "helper"])
def test_huge_noise_overflows_without_a_warning(monkeypatch, helper):
    """An overflowed sigma * z is +-inf, which gives the comparison the
    sign of z, as a finite huge sigma does."""
    if helper:
        _set_block(monkeypatch, 6, 2)
        started = _started_threads(monkeypatch)
    d = _field(6, 705)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (huge,) = distance_row_sums(d.values[None], [1e308], np.random.default_rng(4))
        tensor = tensor_from_distances(d, ComparisonNoiseModel(1e308), np.random.default_rng(4))
    (large,) = distance_row_sums(d.values[None], [1e300], np.random.default_rng(4))
    np.testing.assert_array_equal(huge, large)
    np.testing.assert_array_equal(tensor.row_sums, large)
    if helper:
        assert len(started) == 3  # one helper per call


def test_prefetch_shared_generator_matches_oracle_across_block_cut(monkeypatch):
    """Two matrices of a stack, the second of noise level 0, and a block
    holds the last slice of the first and the first slices of the second:
    the helper draws them in order, as the oracle's one (2N, N(N-1)/2)
    draw whose second half is scaled to 0."""
    n = 7
    _set_block(monkeypatch, n, 3)
    assert slice(6, 9) in ordinal._slice_blocks(2 * n, n)
    ds = [_field(n, 800), _field(n, 801)]
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    started = _started_threads(monkeypatch)
    stacked = distance_row_sums(np.stack([d.values for d in ds]), [0.3, 0.0], rng)
    assert len(started) == 1
    for g, draws in enumerate(dense_stack_noise(oracle_rng, [0.3, 0.0], n)):
        np.testing.assert_array_equal(stacked[g], _dense_sums(dense_comparisons(ds[g], draws)))
    assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("increasing", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 21, 110])
def test_signal_row_sums_match_tensor(n, increasing):
    rng = np.random.default_rng(500 + n)
    stack, masks = [], []
    # the last matrix misses some links in one direction only
    for missing_rate, one_way in ((0.0, False), (0.2, False), (0.6, False), (0.3, True)):
        # coarse values tie often, and +0.0 / -0.0 compare equal
        values = np.round(rng.normal(size=(n, n)), 1)
        values = values + values.T
        values[values == 0] = rng.choice([0.0, -0.0], size=int((values == 0).sum()))
        missing = rng.uniform(size=(n, n)) < missing_rate
        if not one_way:
            missing |= missing.T
        stack.append(np.where(missing, np.nan, values))
        masks.append(~missing)
    values, present = np.stack(stack), np.stack(masks)
    stacked, messages = _with_coverage_warnings(
        lambda: signal_row_sums(values, present, increasing)
    )
    assert stacked.dtype == np.int64 and stacked.shape == (len(stack), n, n)
    expected_messages = []
    for g in range(len(stack)):
        S = SignalMatrix(values[g], increasing, n_anchors=0, missing=~present[g])
        z, dense_messages = _with_coverage_warnings(lambda: dense_tensor_from_signals(S))
        np.testing.assert_array_equal(stacked[g], _dense_sums(z))
        tensor, tensor_messages = _with_coverage_warnings(lambda: tensor_from_signals(S))
        assert proximity_scores(stacked[g]).tobytes() == _tensor_scores_bytes(tensor)
        assert tensor_messages == dense_messages
        expected_messages += dense_messages
    assert messages == expected_messages


def test_signal_row_sums_default_mask_is_every_link():
    """None marks every off-diagonal link present; the diagonal never is,
    even where a mask marks it."""
    rng = np.random.default_rng(7)
    values = rng.normal(size=(2, 5, 5))
    values = values + np.swapaxes(values, 1, 2)
    every = signal_row_sums(values, None, True)
    np.testing.assert_array_equal(every, signal_row_sums(values, np.ones(values.shape), True))
    for g in range(2):
        S = SignalMatrix(values[g], True, n_anchors=0)
        np.testing.assert_array_equal(every[g], tensor_from_signals(S).row_sums)


def test_row_sums_reject_mixed_orders():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError, match="square"):
        distance_row_sums(np.zeros((2, 3, 4)), [0.0] * 2, rng)
    with pytest.raises(InputError, match="one noise level per distance matrix"):
        distance_row_sums(_field(3, 0).values[None], [], rng)
    with pytest.raises(InputError, match="sigma must be finite"):
        distance_row_sums(_field(3, 0).values[None], [np.nan], rng)
    infinite = np.stack([_field(3, 0).values] * 2)
    infinite[1, 2, 0] = np.inf
    with pytest.raises(InputError, match=r"distance inf between sensors \(2, 0\) is not finite"):
        distance_row_sums(infinite, [0.0] * 2, rng)
    values = np.ones((2, 3, 3))
    with pytest.raises(InputError, match=r"^signal matrix must be square, got shape \(3, 4\)$"):
        signal_row_sums(np.ones((2, 3, 4)), None, True)
    # a lone matrix is a stack of 1-D rows
    with pytest.raises(InputError, match=r"^signal matrix must be square, got shape \(3,\)$"):
        signal_row_sums(values[0], None, True)
    with pytest.raises(InputError, match="^presence mask shape must match values$"):
        signal_row_sums(values, np.ones((2, 3, 4), dtype=bool), True)
    with pytest.raises(InputError, match="^presence mask shape must match values$"):
        signal_row_sums(values, np.ones((3, 3), dtype=bool), True)
    assert distance_row_sums(np.empty((0, 0, 0)), [], rng).shape == (0, 0, 0)
    assert signal_row_sums(np.empty((0, 0, 0)), None, True).shape == (0, 0, 0)


def test_signal_row_sums_name_the_bad_matrix():
    """A bad matrix inside a stack is named by its index; a stack of one
    reads as one matrix, as ``SignalMatrix`` reports it."""
    values = np.stack([np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])] * 3)
    nonfinite = values.copy()
    nonfinite[2, 1, 2] = nonfinite[2, 2, 1] = np.nan
    with pytest.raises(
        InputError, match=r"^signal value nan at present link \(1, 2\) of matrix 2 is not finite$"
    ):
        signal_row_sums(nonfinite, None, False)
    # NaN at a link marked missing is ignored
    present = np.ones(values.shape, dtype=bool)
    present[2, 1, 2] = present[2, 2, 1] = False
    signal_row_sums(nonfinite, present, False)
    one_matrix = r"^signal value nan at present link \(1, 2\) is not finite$"
    with pytest.raises(InputError, match=one_matrix):
        signal_row_sums(nonfinite[2:], None, False)
    skewed = values.copy()
    skewed[1, 0, 2] = 2.5
    with pytest.raises(InputError, match="^signal matrix 1 must be symmetric where present$"):
        signal_row_sums(skewed, None, True)
    with pytest.raises(InputError, match="^signal matrix must be symmetric where present$"):
        signal_row_sums(skewed[1:2], None, True)
    # one direction of the link missing: nothing to compare
    present = np.ones(values.shape, dtype=bool)
    present[1, 2, 0] = False
    signal_row_sums(skewed, present, True)


def test_pair_indices_cached_and_read_only():
    i, j = pair_indices(6)
    expected_i, expected_j = np.triu_indices(6, k=1)
    np.testing.assert_array_equal(i, expected_i)
    np.testing.assert_array_equal(j, expected_j)
    assert pair_indices(6)[0] is i
    assert not i.flags.writeable and not j.flags.writeable
