import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_field_distances
from ordinal_unloc.core import ComparisonTensor, DistanceMatrix, InputError
from ordinal_unloc.ordinal import ComparisonNoiseModel, tensor_from_distances
from ordinal_unloc.rank import aggregate_proximities, proximity_scores
from reference_solvers import (
    dense_tensor_from_distances,
    enumerate_pairs,
    flatten_slice,
    incidence_matrix,
    ls_rank,
    ls_rank_pinv,
)


def test_enumerate_pairs_n4():
    enum = enumerate_pairs(4)
    assert enum.n_pairs == 6
    assert enum.pairs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_enumerate_pairs_too_small():
    with pytest.raises(InputError):
        enumerate_pairs(1)


def test_incidence_matrix_n3():
    b = incidence_matrix(enumerate_pairs(3))
    np.testing.assert_array_equal(
        b, [[1.0, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]
    )


def test_incidence_gram_identity():
    # B^T B = N I - 1 1^T for the complete graph
    for n in (3, 5, 8):
        b = incidence_matrix(enumerate_pairs(n))
        np.testing.assert_allclose(b.T @ b, n * np.eye(n) - np.ones((n, n)))


def test_flatten_slice_order():
    z = np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    flat = flatten_slice(z, enumerate_pairs(3))
    np.testing.assert_array_equal(flat, [1.0, -1.0, 1.0])


def test_flatten_slice_shape_mismatch():
    with pytest.raises(InputError):
        flatten_slice(np.zeros((3, 3)), enumerate_pairs(4))


def test_ls_rank_worked_example():
    # three items ranked 0 > 1 > 2 with unanimous comparisons
    enum = enumerate_pairs(3)
    b = incidence_matrix(enum)
    z = np.array([1.0, 1.0, 1.0])  # item i beats j on every pair
    psi = ls_rank(z, b)
    np.testing.assert_allclose(psi, [2 / 3, 0.0, -2 / 3])


def test_ls_rank_zero_sum_and_residual_optimality():
    rng = np.random.default_rng(3)
    enum = enumerate_pairs(6)
    b = incidence_matrix(enum)
    z = rng.choice([-1.0, 0.0, 1.0], size=enum.n_pairs)
    psi = ls_rank(z, b)
    assert abs(psi.sum()) < 1e-12
    # least squares: residual orthogonal to the column space of B
    np.testing.assert_allclose(b.T @ (b @ psi - z), 0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_closed_form_matches_pinv_oracle(n, seed):
    rng = np.random.default_rng(seed)
    enum = enumerate_pairs(n)
    b = incidence_matrix(enum)
    z = rng.choice([-1.0, 0.0, 1.0], size=enum.n_pairs)
    np.testing.assert_allclose(ls_rank(z, b), ls_rank_pinv(z, b), atol=1e-10)


def test_aggregate_matches_per_slice_solve():
    rng = np.random.default_rng(17)
    _, _, d = random_field_distances(rng, 5, 2)
    oracle_rng = copy.deepcopy(rng)
    tensor = tensor_from_distances(d, ComparisonNoiseModel(0.2), rng)
    z = dense_tensor_from_distances(d, ComparisonNoiseModel(0.2), oracle_rng)
    psi = aggregate_proximities(tensor)
    n = tensor.order
    enum = enumerate_pairs(n)
    b = incidence_matrix(enum)
    for k in range(n):
        expected = ls_rank(flatten_slice(z[k], enum), b)
        np.testing.assert_allclose(psi[:, k], expected, atol=1e-12)
    assert psi.shape == (7, 7)


def test_noiseless_scores_order_like_distances():
    rng = np.random.default_rng(8)
    _, _, d = random_field_distances(rng, 7, 1)
    tensor = tensor_from_distances(d, ComparisonNoiseModel(0.0))
    psi = aggregate_proximities(tensor)
    n = d.order
    for k in range(n):
        others = [i for i in range(n) if i != k]
        true_order = np.argsort(d.values[others, k])
        score_order = np.argsort(psi[others, k])
        np.testing.assert_array_equal(true_order, score_order)


def test_zero_tensor_gives_zero_scores():
    tensor = ComparisonTensor(np.zeros((4, 4), dtype=np.int64), 4)
    np.testing.assert_array_equal(aggregate_proximities(tensor), 0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=7), st.integers(min_value=0, max_value=2**31))
def test_aggregate_columns_zero_sum(n, seed):
    rng = np.random.default_rng(seed)
    _, _, d = random_field_distances(rng, n, 1)
    tensor = tensor_from_distances(d, ComparisonNoiseModel(0.5), rng)
    psi = aggregate_proximities(tensor)
    np.testing.assert_allclose(psi.sum(axis=0), 0.0, atol=1e-12)


def test_proximity_scores_of_a_stack_match_each_matrix():
    rng = np.random.default_rng(23)
    row_sums = rng.integers(-6, 7, size=(3, 7, 7))
    stacked = proximity_scores(row_sums)
    for g in range(3):
        assert stacked[g].tobytes() == proximity_scores(row_sums[g]).tobytes()
        np.testing.assert_array_equal(stacked[g], row_sums[g].T / 7)


@pytest.mark.parametrize("n", [1, 2, 200])
def test_aggregate_narrow_sums_match_int64_sums(n):
    """On a noiseless collinear field at N = 200 the row sums reach +-199,
    beyond int8.  The scores of the tensor's int64 row sums have the bytes
    of the scores of the dense tensor's slices summed with a narrow int16
    accumulator."""
    x = np.arange(n, dtype=float)
    d = DistanceMatrix(np.abs(x[:, None] - x[None, :]), 0)
    tensor = tensor_from_distances(d, ComparisonNoiseModel(0.0))
    z = dense_tensor_from_distances(d, ComparisonNoiseModel(0.0), np.random.default_rng(0))
    narrow = z.sum(axis=2, dtype=np.int16)
    assert np.abs(tensor.row_sums).max() == n - 1
    np.testing.assert_array_equal(tensor.row_sums, narrow)
    psi = aggregate_proximities(tensor)
    assert psi.dtype == np.float64
    assert psi.tobytes() == proximity_scores(narrow).tobytes()
