import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_field_distances
from ordinal_unloc.core import InputError
from ordinal_unloc.funclearn import (
    SLOPE_FLOOR,
    DegenerateFitWarning,
    EstimatedDistanceMatrix,
    UnderdeterminedFit,
    _preliminary,
    _recalibrate,
    estimate_distances,
    estimate_distances_stack,
    fit_linear_map,
)
from ordinal_unloc.ordinal import ComparisonNoiseModel, tensor_from_distances
from ordinal_unloc.rank import aggregate_proximities
from reference_solvers import reference_fit, reference_preliminary, reference_recalibrate


def test_fit_exact_line():
    psi = np.array([-1.0, 0.0, 1.0, 2.0])
    offset, slope = fit_linear_map(psi, 3.0 + 2.0 * psi)
    assert offset == pytest.approx(3.0)
    assert slope == pytest.approx(2.0)
    assert type(offset) is type(slope) is float


def test_fit_matches_polyfit_oracle():
    rng = np.random.default_rng(2)
    psi = rng.normal(size=20)
    d = 1.5 + 0.7 * psi + 0.1 * rng.normal(size=20)
    offset, slope = fit_linear_map(psi, d)
    assert (slope, offset) == pytest.approx(tuple(np.polyfit(psi, d, 1)))


def test_fit_negative_trend_clamped():
    psi = np.array([0.0, 1.0, 2.0])
    d = np.array([2.0, 1.0, 0.0])
    offset, slope = fit_linear_map(psi, d)
    assert slope == SLOPE_FLOOR
    # intercept recomputed at the clamped slope keeps the mean response
    assert offset == pytest.approx(d.mean() - SLOPE_FLOOR * psi.mean())


def test_fit_constant_proximities_warns():
    with pytest.warns(DegenerateFitWarning):
        _, slope = fit_linear_map([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    assert slope == SLOPE_FLOOR


def test_fit_underdetermined():
    with pytest.raises(UnderdeterminedFit):
        fit_linear_map([1.0], [2.0])


def test_linear_map_rejects_nonpositive_slope():
    """A fit clamps a negative slope to SLOPE_FLOOR, so only the NaN slope
    of non-finite input is not positive; it is refused."""
    for d in ([0.0, np.nan, 1.0], [0.0, np.inf, 1.0]):
        with pytest.raises(InputError, match="slope must be positive, got nan"):
            fit_linear_map([0.0, 1.0, 2.0], d)


def test_estimate_matrix_properties():
    m = EstimatedDistanceMatrix(np.array([[1.0, -0.5], [2.0, 0.0]]))
    assert m.n_anchors == 2 and m.n_targets == 2
    assert m.negative_count == 1
    with pytest.raises(InputError):
        EstimatedDistanceMatrix(np.array([[np.nan]]))
    with pytest.raises(InputError):
        EstimatedDistanceMatrix(np.zeros(3))


def _pipeline_inputs(rng, m=6, n=2, sigma=0.0):
    anchors, targets, d = random_field_distances(rng, m, n)
    tensor = tensor_from_distances(d, ComparisonNoiseModel(sigma), rng)
    psi = aggregate_proximities(tensor)
    return d.values[:m, :m], psi


def test_stages_and_shapes():
    rng = np.random.default_rng(4)
    d_y, psi = _pipeline_inputs(rng)
    prelim, failed = _preliminary(psi[None], d_y[None], 6)
    assert prelim.shape == (1, 6, 2) and failed.shape == (1, 6)
    final = _recalibrate(psi[None], prelim, 6)
    assert final.shape == (1, 6, 2)
    composed = estimate_distances(psi, d_y)
    assert composed.values.tobytes() == final[0].tobytes()


def test_recalibrated_columns_affine_in_target_scores():
    rng = np.random.default_rng(9)
    d_y, psi = _pipeline_inputs(rng, sigma=0.3)
    final = estimate_distances(psi, d_y)
    psi_yx = psi[:6, 6:]
    for j in range(final.n_targets):
        coeffs = np.polyfit(psi_yx[:, j], final.values[:, j], 1)
        fitted = np.polyval(coeffs, psi_yx[:, j])
        np.testing.assert_allclose(fitted, final.values[:, j], atol=1e-9)
        assert coeffs[0] > 0


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=4, max_value=9),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31),
)
def test_noiseless_estimates_preserve_distance_order(m, n, seed):
    """With exact comparisons the estimated column ranks anchors correctly."""
    rng = np.random.default_rng(seed)
    anchors, targets, d = random_field_distances(rng, m, n)
    tensor = tensor_from_distances(d, ComparisonNoiseModel(0.0))
    psi = aggregate_proximities(tensor)
    final = estimate_distances(psi, d.values[:m, :m])
    true_yx = d.values[:m, m:]
    for j in range(n):
        if np.unique(psi[:m, m + j]).size < m:
            continue  # ties in scores carry no order information
        np.testing.assert_array_equal(
            np.argsort(final.values[:, j]), np.argsort(true_yx[:, j])
        )


def test_degenerate_anchor_column_clamps_without_flagging():
    rng = np.random.default_rng(6)
    d_y, psi = _pipeline_inputs(rng, m=5, n=1)
    # force one degenerate anchor column: constant proximities
    values = psi.copy()
    values[:, 2] = 0.0
    with pytest.warns(DegenerateFitWarning):
        prelim, failed = _preliminary(values[None], d_y[None], 5)
    # anchor 2's proximity column is constant but its distance column is
    # not, so the fit clamps; the anchor is not flagged, only hard failures are
    assert prelim.shape == (1, 5, 1) and not failed.any()


def test_shape_mismatches_rejected():
    rng = np.random.default_rng(7)
    d_y, psi = _pipeline_inputs(rng, m=5, n=1)
    # the array stage reads the anchor count from the anchor block, so 4
    # anchors of 6 sensors fit; localize_from_tensor checks it against the
    # tensor's (test_pipeline::test_anchor_count_must_match_the_tensor)
    assert estimate_distances(psi, d_y[:4, :4]).values.shape == (4, 2)
    for d_y_bad in (np.zeros((5, 4)), np.zeros(5), np.zeros((1, 5, 5)), np.float64(1.0)):
        with pytest.raises(InputError, match="anchor distance block"):
            estimate_distances(psi, d_y_bad)
    with pytest.raises(InputError, match="square proximity matrices"):
        estimate_distances(psi[:, :5], d_y)
    with pytest.raises(InputError, match="square proximity matrices"):
        estimate_distances_stack(np.zeros((1, 4, 4)), d_y)


# -- column-wise fits against the per-column reference loops ---------------


def _with_degenerate_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sum(w.category is DegenerateFitWarning for w in caught)


def _assert_same_estimates(got, expected):
    """``got`` is a stack of one (estimates, failed) pair; ``expected`` an
    ``EstimatedDistanceMatrix`` of the reference loops."""
    estimates, failed = got
    assert estimates[0].tobytes() == expected.values.tobytes()
    assert tuple(np.flatnonzero(failed[0])) == expected.flagged_anchors


@pytest.mark.parametrize("case", ["plain", "constant", "negative", "all-constant", "nan-anchor"])
def test_columnwise_fits_match_reference(case):
    rng = np.random.default_rng(len(case))
    for m, n, sigma in [(5, 1, 0.0), (10, 3, 0.1), (20, 1, 0.5), (21, 2, 3.0), (2, 1, 0.0)]:
        d_y, psi = _pipeline_inputs(rng, m=m, n=n, sigma=sigma)
        values = psi.copy()
        d_y = d_y.copy()
        if case == "constant":
            values[:, rng.integers(m)] = 0.25  # constant proximity column
        elif case == "negative":
            k = rng.integers(m)
            values[:m, k] = -values[:m, k]  # fit slope comes out negative
        elif case == "all-constant":
            values[:] = 0.5
        elif case == "nan-anchor" and m > 2:
            d_y[:, 1] = np.nan  # the anchor's fit fails and it is flagged
        prelim, warned = _with_degenerate_warnings(_preliminary, values[None], d_y[None], m)
        expected, expected_warned = _with_degenerate_warnings(reference_preliminary, values, d_y)
        _assert_same_estimates(prelim, expected)
        assert warned == expected_warned
        if case in ("constant", "all-constant"):
            assert warned >= 1
        final, warned = _with_degenerate_warnings(_recalibrate, values[None], prelim[0], m)
        expected, expected_warned = _with_degenerate_warnings(reference_recalibrate, values, expected)
        _assert_same_estimates((final, prelim[1]), expected)
        assert warned == expected_warned
        if case == "nan-anchor" and m > 2:
            assert np.flatnonzero(prelim[1][0]).tolist() == [1]


def test_degenerate_warning_counts_per_column():
    rng = np.random.default_rng(31)
    d_y, psi = _pipeline_inputs(rng, m=6, n=1)
    values = psi.copy()
    values[:, [1, 4]] = 0.0
    _, warned = _with_degenerate_warnings(_preliminary, values[None], d_y[None], 6)
    _, expected = _with_degenerate_warnings(reference_preliminary, values, d_y)
    assert warned == expected == 2


def test_fit_linear_map_matches_reference():
    rng = np.random.default_rng(32)
    for size in (2, 3, 7, 8, 9, 20, 21, 380):
        psi = rng.normal(size=size)
        for d in (1.5 + 0.7 * psi + 0.1 * rng.normal(size=size), 2.0 - psi, np.full(size, 0.3)):
            assert fit_linear_map(psi, d) == reference_fit(psi, d)


# -- stacked estimates against each matrix estimated alone -----------------


def _estimate_alone(psi, d_y):
    return _with_degenerate_warnings(estimate_distances, psi, d_y)


def _assert_stack_entry(stack, k, expected):
    """Matrix k of an ``estimate_distances_stack`` result has the bytes and
    flagged anchors of ``expected``, a recalibrated estimate alone."""
    estimates, failed = stack
    assert estimates[k].tobytes() == expected.values.tobytes()
    assert tuple(np.flatnonzero(failed[k])) == expected.flagged_anchors


@pytest.mark.parametrize("m, n", [(2, 1), (5, 1), (10, 3), (20, 1)])
def test_batch_matches_each_matrix_alone(m, n):
    """A stack holding a flagged (NaN-slope) anchor, a degenerate proximity
    column and plain matrices gives each matrix the bytes, flagged anchors
    and warnings of its estimate alone."""
    rng = np.random.default_rng(40 + m)
    psis, d_ys = [], []
    for case in ("plain", "nan-anchor", "constant", "plain", "negative"):
        d_y, psi = _pipeline_inputs(rng, m=m, n=n, sigma=0.3)
        values, d_y = psi.copy(), d_y.copy()
        if case == "nan-anchor" and m > 2:
            d_y[:, 1] = np.nan
        elif case == "constant":
            values[:, [m - 1, m]] = 0.25  # one anchor and one target slice
        elif case == "negative":
            values[:m, 0] = -values[:m, 0]
        psis.append(values)
        d_ys.append(d_y)
    stack, warned = _with_degenerate_warnings(
        estimate_distances_stack, np.stack(psis), np.stack(d_ys)
    )
    expected_warned = 0
    for k, (psi, d_y) in enumerate(zip(psis, d_ys)):
        expected, count = _estimate_alone(psi, d_y)
        _assert_stack_entry(stack, k, expected)
        expected_warned += count
    assert warned == expected_warned >= 2
    if m > 2:
        assert np.flatnonzero(stack[1][1]).tolist() == [1]


def test_batch_shares_one_anchor_block():
    rng = np.random.default_rng(45)
    d_y, psi = _pipeline_inputs(rng, m=6, n=2, sigma=0.5)
    _, other = _pipeline_inputs(rng, m=6, n=2, sigma=0.5)
    stack = np.stack([psi, other])
    got = estimate_distances_stack(stack, d_y)
    for k, p in enumerate((psi, other)):
        _assert_stack_entry(got, k, estimate_distances(p, d_y))


def test_batch_shape_checks():
    rng = np.random.default_rng(46)
    d_y, psi = _pipeline_inputs(rng, m=5, n=1)
    stack = psi[None]
    estimates, failed = estimate_distances_stack(np.empty((0, 6, 6)), np.empty((0, 5, 5)))
    assert estimates.shape == (0, 5, 1) and failed.shape == (0, 5)
    with pytest.raises(InputError):
        estimate_distances_stack(psi, d_y)
    with pytest.raises(InputError):
        estimate_distances_stack(stack, np.zeros((2, 5, 5)))
    with pytest.raises(UnderdeterminedFit):
        estimate_distances_stack(stack, np.zeros((1, 1)))
    all_failed = np.full((5, 5), np.nan)
    with pytest.raises(UnderdeterminedFit, match="every anchor fit failed"):
        estimate_distances_stack(stack, all_failed)
    # a non-finite target score stops the batch where it stops the matrix alone
    values = psi.copy()
    values[5, 2] = np.inf
    with pytest.raises(InputError, match="must be finite"):
        estimate_distances(values, d_y)
    with pytest.raises(InputError, match="must be finite"):
        estimate_distances_stack(np.stack([psi, values]), d_y)
