import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_field_distances
from ordinal_unloc.core import InputError, ProximityMatrix
from ordinal_unloc.funclearn import (
    SLOPE_FLOOR,
    DegenerateFitWarning,
    EstimatedDistanceMatrix,
    LinearMap,
    UnderdeterminedFit,
    estimate_distances,
    fit_linear_map,
    preliminary_distances,
    recalibrate,
)
from ordinal_unloc.ordinal import ComparisonNoiseModel, tensor_from_distances
from ordinal_unloc.rank import aggregate_proximities
from reference_solvers import reference_fit, reference_preliminary, reference_recalibrate


def test_fit_exact_line():
    psi = np.array([-1.0, 0.0, 1.0, 2.0])
    g = fit_linear_map(psi, 3.0 + 2.0 * psi)
    assert g.offset == pytest.approx(3.0)
    assert g.slope == pytest.approx(2.0)
    np.testing.assert_allclose(g(psi), 3.0 + 2.0 * psi)


def test_fit_matches_polyfit_oracle():
    rng = np.random.default_rng(2)
    psi = rng.normal(size=20)
    d = 1.5 + 0.7 * psi + 0.1 * rng.normal(size=20)
    g = fit_linear_map(psi, d)
    slope, offset = np.polyfit(psi, d, 1)
    assert g.slope == pytest.approx(slope)
    assert g.offset == pytest.approx(offset)


def test_fit_negative_trend_clamped():
    psi = np.array([0.0, 1.0, 2.0])
    d = np.array([2.0, 1.0, 0.0])
    g = fit_linear_map(psi, d)
    assert g.slope == SLOPE_FLOOR
    # intercept recomputed at the clamped slope keeps the mean response
    assert g.offset == pytest.approx(d.mean() - SLOPE_FLOOR * psi.mean())


def test_fit_constant_proximities_warns():
    with pytest.warns(DegenerateFitWarning):
        g = fit_linear_map([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    assert g.slope == SLOPE_FLOOR


def test_fit_underdetermined():
    with pytest.raises(UnderdeterminedFit):
        fit_linear_map([1.0], [2.0])


def test_linear_map_rejects_nonpositive_slope():
    with pytest.raises(InputError):
        LinearMap(0.0, 0.0)
    with pytest.raises(InputError):
        LinearMap(0.0, -1.0)


def test_estimate_matrix_properties():
    m = EstimatedDistanceMatrix(np.array([[1.0, -0.5], [2.0, 0.0]]), "preliminary")
    assert m.n_anchors == 2 and m.n_targets == 2
    assert m.negative_count == 1
    with pytest.raises(InputError):
        EstimatedDistanceMatrix(np.array([[np.nan]]), "preliminary")
    with pytest.raises(InputError):
        EstimatedDistanceMatrix(np.zeros((2, 2)), "final")


def _pipeline_inputs(rng, m=6, n=2, sigma=0.0):
    anchors, targets, d = random_field_distances(rng, m, n)
    tensor = tensor_from_distances(d, ComparisonNoiseModel(sigma), rng)
    psi = aggregate_proximities(tensor)
    return d, psi


def test_stages_and_shapes():
    rng = np.random.default_rng(4)
    d, psi = _pipeline_inputs(rng)
    d_y = d.block("Y")
    prelim = preliminary_distances(psi, d_y)
    assert prelim.stage == "preliminary"
    assert prelim.values.shape == (6, 2)
    final = recalibrate(psi, prelim)
    assert final.stage == "recalibrated"
    assert final.values.shape == (6, 2)
    composed = estimate_distances(psi, d_y)
    np.testing.assert_array_equal(composed.values, final.values)


def test_recalibrated_columns_affine_in_target_scores():
    rng = np.random.default_rng(9)
    d, psi = _pipeline_inputs(rng, sigma=0.3)
    final = estimate_distances(psi, d.block("Y"))
    psi_yx = psi.block("YX")
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
    final = estimate_distances(psi, d.block("Y"))
    true_yx = d.block("YX")
    for j in range(n):
        if np.unique(psi.block("YX")[:, j]).size < m:
            continue  # ties in scores carry no order information
        np.testing.assert_array_equal(
            np.argsort(final.values[:, j]), np.argsort(true_yx[:, j])
        )


def test_degenerate_anchor_column_clamps_without_flagging():
    rng = np.random.default_rng(6)
    d, psi = _pipeline_inputs(rng, m=5, n=1)
    # force one degenerate anchor column: constant proximities
    values = psi.values.copy()
    values[:, 2] = 0.0
    broken = ProximityMatrix(values, psi.n_anchors)
    with pytest.warns(DegenerateFitWarning):
        prelim = preliminary_distances(broken, d.block("Y"))
    # anchor 2's proximity column is constant but its distance column is
    # not, so the fit clamps; the anchor is not flagged, only hard failures are
    assert prelim.values.shape == (5, 1)


def test_shape_mismatches_rejected():
    rng = np.random.default_rng(7)
    d, psi = _pipeline_inputs(rng, m=5, n=1)
    with pytest.raises(InputError):
        preliminary_distances(psi, np.zeros((4, 4)))
    prelim = preliminary_distances(psi, d.block("Y"))
    bad_psi = ProximityMatrix(np.zeros((4, 4)), 3)
    with pytest.raises(InputError):
        recalibrate(bad_psi, prelim)


# -- column-wise fits against the per-column reference loops ---------------


def _with_degenerate_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sum(w.category is DegenerateFitWarning for w in caught)


def _assert_same_estimates(got, expected):
    assert got.values.tobytes() == expected.values.tobytes()
    assert got.flagged_anchors == expected.flagged_anchors
    assert got.stage == expected.stage


@pytest.mark.parametrize("case", ["plain", "constant", "negative", "all-constant", "nan-anchor"])
def test_columnwise_fits_match_reference(case):
    rng = np.random.default_rng(len(case))
    for m, n, sigma in [(5, 1, 0.0), (10, 3, 0.1), (20, 1, 0.5), (21, 2, 3.0), (2, 1, 0.0)]:
        d, psi = _pipeline_inputs(rng, m=m, n=n, sigma=sigma)
        values = psi.values.copy()
        d_y = d.block("Y").copy()
        if case == "constant":
            values[:, rng.integers(m)] = 0.25  # constant proximity column
        elif case == "negative":
            k = rng.integers(m)
            values[:m, k] = -values[:m, k]  # fit slope comes out negative
        elif case == "all-constant":
            values[:] = 0.5
        elif case == "nan-anchor" and m > 2:
            d_y[:, 1] = np.nan  # the anchor's fit fails and it is flagged
        psi = ProximityMatrix(values, m)
        prelim, warned = _with_degenerate_warnings(preliminary_distances, psi, d_y)
        expected, expected_warned = _with_degenerate_warnings(reference_preliminary, psi, d_y)
        _assert_same_estimates(prelim, expected)
        assert warned == expected_warned
        if case in ("constant", "all-constant"):
            assert warned >= 1
        final, warned = _with_degenerate_warnings(recalibrate, psi, prelim)
        expected, expected_warned = _with_degenerate_warnings(reference_recalibrate, psi, prelim)
        _assert_same_estimates(final, expected)
        assert warned == expected_warned
        if case == "nan-anchor" and m > 2:
            assert prelim.flagged_anchors == (1,)


def test_degenerate_warning_counts_per_column():
    rng = np.random.default_rng(31)
    d, psi = _pipeline_inputs(rng, m=6, n=1)
    values = psi.values.copy()
    values[:, [1, 4]] = 0.0
    broken = ProximityMatrix(values, psi.n_anchors)
    _, warned = _with_degenerate_warnings(preliminary_distances, broken, d.block("Y"))
    _, expected = _with_degenerate_warnings(reference_preliminary, broken, d.block("Y"))
    assert warned == expected == 2


def test_fit_linear_map_matches_reference():
    rng = np.random.default_rng(32)
    for size in (2, 3, 7, 8, 9, 20, 21, 380):
        psi = rng.normal(size=size)
        for d in (1.5 + 0.7 * psi + 0.1 * rng.normal(size=size), 2.0 - psi, np.full(size, 0.3)):
            got, expected = fit_linear_map(psi, d), reference_fit(psi, d)
            assert (got.offset, got.slope) == (expected.offset, expected.slope)
