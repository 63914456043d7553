import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_field_distances
from ordinal_unloc import ordinal
from ordinal_unloc.core import DistanceMatrix, InputError
from ordinal_unloc.ordinal import (
    ComparisonNoiseModel,
    SignalMatrix,
    SliceCoverageWarning,
    compare_ordinal,
    tensor_from_distances,
    tensor_from_signals,
)


def test_compare_ordinal_basic():
    assert compare_ordinal(1.0, 2.0, 0.0) == -1
    assert compare_ordinal(1.0, 1.0, 0.0) == 0
    assert compare_ordinal(1.0, 2.0, 1.5) == +1


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
    z = tensor_from_distances(_line_distances(), ComparisonNoiseModel(0.0)).values
    # slice 0 (reference at position 0): d = (0, 1, 3)
    assert z[0, 1, 2] == -1  # sensor 1 closer to 0 than sensor 2
    assert z[0, 0, 2] == -1
    # slice 1 (reference at 1): d = (1, 0, 2); z^{(1)}_{23} = sgn(1 - 3)? no:
    # sensors 1 and 2 (0-based) have distances 0 and 2 to reference 1
    assert z[1, 1, 2] == -1
    assert z[1, 0, 2] == -1  # d=1 vs d=2
    assert z[1, 2, 0] == +1


def test_tensor_noiseless_matches_true_ordering():
    rng = np.random.default_rng(11)
    _, _, d = random_field_distances(rng, 6, 2)
    z = tensor_from_distances(d, ComparisonNoiseModel(0.0)).values
    n = d.order
    for k in range(n):
        expected = np.sign(d.values[:, k][:, None] - d.values[:, k][None, :])
        np.testing.assert_array_equal(z[k], expected)


def test_tensor_determinism():
    rng = np.random.default_rng(5)
    _, _, d = random_field_distances(rng, 5, 1)
    a = tensor_from_distances(d, ComparisonNoiseModel(0.4, seed=9)).values
    b = tensor_from_distances(d, ComparisonNoiseModel(0.4, seed=9)).values
    np.testing.assert_array_equal(a, b)
    c = tensor_from_distances(d, ComparisonNoiseModel(0.4, seed=10)).values
    assert not np.array_equal(a, c)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.floats(min_value=0.0, max_value=2.0),
    st.integers(min_value=0, max_value=2**31),
)
def test_tensor_skew_symmetry(m, sigma, seed):
    rng = np.random.default_rng(seed)
    _, _, d = random_field_distances(rng, m, 1)
    z = tensor_from_distances(d, ComparisonNoiseModel(sigma), rng).values
    np.testing.assert_array_equal(z, -z.transpose(0, 2, 1))
    assert np.all(np.diagonal(z, axis1=1, axis2=2) == 0)


def _signal_matrix(values, increasing, m=2, missing=None):
    return SignalMatrix(values, increasing_with_distance=increasing, n_anchors=m, missing=missing)


def test_signals_rss_orientation():
    # stronger received power means closer: p_ik=0.9, p_jk=0.1
    s = np.array([[0.0, 0.5, 0.9], [0.5, 0.0, 0.1], [0.9, 0.1, 0.0]])
    z = tensor_from_signals(_signal_matrix(s, increasing=False)).values
    assert z[2, 0, 1] == -1  # sensor 0 closer to reference 2 than sensor 1


def test_signals_toa_orientation():
    s = np.array([[0.0, 3.0, 2.0], [3.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    z = tensor_from_signals(_signal_matrix(s, increasing=True)).values
    assert z[2, 0, 1] == +1  # tau_i=2 > tau_j=1: i farther


def test_signals_tie_gives_zero():
    s = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    z = tensor_from_signals(_signal_matrix(s, increasing=False)).values
    assert z[0, 1, 2] == 0


def test_signals_missing_entries_and_warning():
    n = 4
    values = np.zeros((n, n))
    missing = np.ones((n, n), dtype=bool)
    # only one usable link
    values[0, 1] = values[1, 0] = -50.0
    missing[0, 1] = missing[1, 0] = False
    with pytest.warns(SliceCoverageWarning):
        z = tensor_from_signals(_signal_matrix(values, increasing=False, missing=missing)).values
    assert np.all(z[2] == 0)


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
    with pytest.warns(SliceCoverageWarning):
        z = tensor_from_signals(_signal_matrix(values, increasing=False, missing=missing)).values
    assert np.all(z[1] == 0) and np.all(z[2] == 0)
    assert z[0, 1, 2] == +1  # 1.0 is weaker power than 2.0: sensor 1 farther


def test_signals_asymmetric_rejected():
    values = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(Exception):
        _signal_matrix(values, increasing=False)


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
        tensor_from_signals(increasing).values, tensor_from_signals(transformed).values
    )
    # a decreasing transform with the flag flipped is also identical
    decreasing = _signal_matrix(1.0 / (base + 1.0), increasing=False, m=m)
    np.testing.assert_array_equal(
        tensor_from_signals(increasing).values, tensor_from_signals(decreasing).values
    )


def test_noiseless_tensor_from_distances_equals_signal_route():
    rng = np.random.default_rng(21)
    _, _, d = random_field_distances(rng, 5, 1)
    via_distances = tensor_from_distances(d, ComparisonNoiseModel(0.0)).values
    sig = _signal_matrix(d.values, increasing=True, m=5)
    via_signals = tensor_from_signals(sig).values
    # the signal route masks self-links (diagonal), the distance route keeps them
    n = d.order
    for k in range(n):
        mask = np.ones((n, n), dtype=bool)
        mask[k, :] = mask[:, k] = False
        np.testing.assert_array_equal(via_distances[k][mask], via_signals[k][mask])


# Dense N^3 reference implementations: the whole tensor, and for the
# threshold path the whole float64 noise tensor, in single expressions.


def _dense_tensor_from_distances(D, noise, rng):
    n = D.order
    xi = np.zeros((n, n, n))
    if noise.sigma > 0:
        iu, ju = np.triu_indices(n, k=1)
        draws = rng.standard_normal((n, iu.size)) * noise.sigma
        xi[:, iu, ju] = draws
        xi[:, ju, iu] = -draws
    dk = D.values.T
    return np.array(np.sign(dk[:, :, None] - dk[:, None, :] + xi), dtype=np.int8)


def _dense_tensor_from_signals(S):
    p = S.values if S.increasing_with_distance else -S.values
    pk = p.T
    missk = S.missing.T
    z = np.sign(pk[:, :, None] - pk[:, None, :])
    unusable = missk[:, :, None] | missk[:, None, :]
    z[unusable] = 0
    n = S.order
    if n > 1:
        off_diag = ~np.eye(n, dtype=bool)
        missing_frac = (unusable & off_diag).sum(axis=(1, 2)) / (n * (n - 1))
        for k in np.nonzero(missing_frac > 0.5)[0]:
            warnings.warn(
                f"slice {k}: {missing_frac[k]:.0%} of comparisons missing; "
                "localization quality degrades",
                SliceCoverageWarning,
            )
    return np.array(z, dtype=np.int8)


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
        sizes = [b.stop - b.start for b in ordinal._slice_blocks(n)]
        assert len(sizes) > 1 and sizes[-1] < sizes[0] and sum(sizes) == n


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("n, block_slices", _ORACLE_SIZES)
def test_tensor_from_distances_matches_dense_oracle(monkeypatch, n, block_slices, sigma):
    _set_block(monkeypatch, n, block_slices)
    field_rng = np.random.default_rng(100 + n)
    pts = field_rng.uniform(size=(n, 2))
    d = DistanceMatrix(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)), 0)
    rng, oracle_rng = np.random.default_rng(n), np.random.default_rng(n)
    z = tensor_from_distances(d, ComparisonNoiseModel(sigma), rng).values
    expected = _dense_tensor_from_distances(d, ComparisonNoiseModel(sigma), oracle_rng)
    assert z.dtype == np.int8 and z.shape == (n, n, n)
    assert z.tobytes() == expected.tobytes()
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
        z, messages = _with_coverage_warnings(lambda: tensor_from_signals(S).values)
        expected, expected_messages = _with_coverage_warnings(lambda: _dense_tensor_from_signals(S))
        assert z.dtype == np.int8 and z.shape == (n, n, n)
        assert z.tobytes() == expected.tobytes()
        assert messages == expected_messages


def _peak_bytes(build):
    tracemalloc.start()
    try:
        tensor = build()
        return tracemalloc.get_traced_memory()[1], tensor
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_tensor_from_distances_peak_memory(sigma):
    rng = np.random.default_rng(40)
    pts = rng.uniform(size=(200, 2))
    d = DistanceMatrix(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)), 180)
    peak, tensor = _peak_bytes(
        lambda: tensor_from_distances(d, ComparisonNoiseModel(sigma), np.random.default_rng(1))
    )
    # the int8 tensor is handed over without a copy, and block temporaries
    # stay well below the tensor's own bytes
    assert peak < 1.6 * tensor.values.nbytes
    assert not tensor.values.flags.writeable


def test_tensor_from_signals_peak_memory():
    rng = np.random.default_rng(41)
    values = rng.normal(size=(200, 200))
    S = SignalMatrix(values + values.T, increasing_with_distance=True, n_anchors=180)
    peak, tensor = _peak_bytes(lambda: tensor_from_signals(S))
    assert peak < 1.6 * tensor.values.nbytes
