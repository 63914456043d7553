import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_field_distances
from ordinal_unloc.core import InputError, point_distances
from ordinal_unloc.funclearn import UnderdeterminedFit, estimate_distances_stack
from ordinal_unloc.ordinal import (
    ComparisonNoiseModel,
    distance_row_sums,
    signal_row_sums,
    tensor_from_distances,
)
from ordinal_unloc.pipeline import estimate, localize, localize_from_tensor
from ordinal_unloc.rank import proximity_scores
from ordinal_unloc.unfold import SolverOptions, solve_columns
from reference_solvers import kendall_tau


def test_anchor_distance_block():
    d = point_distances([[0.0, 0.0], [3.0, 4.0]])
    np.testing.assert_allclose(d, [[0.0, 5.0], [5.0, 0.0]])


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_noiseless_end_to_end_perfect_distance_ordering(seed):
    """With exact comparisons the recalibrated estimates rank the anchors
    exactly like the true distances (tau = 1 barring score ties)."""
    rng = np.random.default_rng(seed)
    anchors, targets, d = random_field_distances(rng, 8, 2)
    tensor = tensor_from_distances(d, ComparisonNoiseModel(0.0))
    results, d_hat = localize_from_tensor(tensor, anchors, SolverOptions(seed=1))
    true_yx = d.values[:8, 8:]
    for j in range(2):
        assert kendall_tau(d_hat.values[:, j], true_yx[:, j]) == 1.0
        assert results[j] is not None
        assert results[j].converged


def test_noiseless_positions_land_in_field():
    rng = np.random.default_rng(44)
    anchors, targets, d = random_field_distances(rng, 12, 1)
    tensor = tensor_from_distances(d, ComparisonNoiseModel(0.0))
    (result,), _ = localize_from_tensor(tensor, anchors, SolverOptions(seed=2))
    # ordinal data alone cannot pin the point exactly; a dense anchor set
    # still puts the estimate in the right neighbourhood
    assert np.linalg.norm(result.position - targets[0]) < 0.5


def test_solver_options_do_not_change_results():
    """The third argument is accepted but not read: any ``SolverOptions``
    gives the bytes of none."""
    rng = np.random.default_rng(13)
    anchors, _, d = random_field_distances(rng, 8, 3)
    tensor = tensor_from_distances(d, ComparisonNoiseModel(0.3), rng)
    expected, expected_d_hat = localize_from_tensor(tensor, anchors)
    got, d_hat = localize_from_tensor(tensor, anchors, SolverOptions(restarts=1, seed=9))
    assert d_hat.values.tobytes() == expected_d_hat.values.tobytes()
    for result, reference in zip(got, expected, strict=True):
        assert result.position.tobytes() == reference.position.tobytes()
        assert (result.cost, result.iterations, result.converged) == (
            reference.cost, reference.iterations, reference.converged
        )


def test_noise_degrades_tau_monotonically_on_average():
    rng = np.random.default_rng(5)
    taus = {0.0: [], 1.0: []}
    for _ in range(10):
        anchors, targets, d = random_field_distances(rng, 8, 1)
        for sigma in taus:
            tensor = tensor_from_distances(d, ComparisonNoiseModel(sigma), rng)
            _, d_hat = localize_from_tensor(tensor, anchors, SolverOptions(seed=3))
            taus[sigma].append(kendall_tau(d_hat.values[:, 0], d.values[:8, 8]))
    assert np.mean(taus[0.0]) > np.mean(taus[1.0])


def test_anchor_count_must_match_the_tensor():
    """Fewer or more anchor positions than the tensor's anchors would turn
    a target into an anchor or an anchor into a target; both are refused."""
    rng = np.random.default_rng(21)
    anchors, _, d = random_field_distances(rng, 5, 2)
    tensor = tensor_from_distances(d, ComparisonNoiseModel(0.0))
    extra = np.vstack([anchors, [[0.5, 0.5]]])
    for bad in (anchors[:4], extra):
        with pytest.raises(InputError, match=f"tensor has 5 anchors, got {len(bad)} positions"):
            localize_from_tensor(tensor, bad)


# -- the stage chain, written once ------------------------------------------


def _readme_stack():
    """The README's example: 10 anchors, two targets, noisy arrival times,
    and the link between anchor 0 and the first target never measured."""
    rng = np.random.default_rng(0)
    m = 10
    points = rng.uniform(0, 1, (m + 2, 2))
    d = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
    noise = rng.normal(0, 0.02, d.shape)
    toa = d + (noise + noise.T) / 2
    present = np.ones((1,) + d.shape, dtype=bool)
    present[0, 0, m] = present[0, m, 0] = False
    return points[:m], signal_row_sums(toa[None], present, increasing_with_distance=True)


def _noisy_distance_stack():
    """Three fields of 7 anchors and 3 targets under threshold noise."""
    rng = np.random.default_rng(17)
    anchors = rng.uniform(0, 1, (7, 2))
    points = np.concatenate([np.broadcast_to(anchors, (3, 7, 2)), rng.uniform(0, 1, (3, 3, 2))], 1)
    return anchors, distance_row_sums(point_distances(points), [0.0, 0.1, 0.4], rng)


@pytest.mark.parametrize("stack", [_readme_stack, _noisy_distance_stack])
def test_localize_is_the_hand_written_chain(stack):
    anchors, row_sums = stack()
    estimates, _ = estimate_distances_stack(proximity_scores(row_sums), point_distances(anchors))
    layouts = np.broadcast_to(anchors, (len(row_sums),) + anchors.shape)
    (expected,) = solve_columns([(layouts, estimates)])
    got = localize(anchors, row_sums)
    assert got.solved.all()
    for name in expected._fields:
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()


def test_estimate_of_a_stack_of_anchor_blocks_matches_each_matrix_alone():
    rng = np.random.default_rng(23)
    points = rng.uniform(0, 1, (3, 9, 2))
    d = point_distances(points)
    row_sums = distance_row_sums(d, [0.0, 0.2, 0.5], rng)
    estimates, flagged = estimate(row_sums, d[:, :6, :6])
    for g in range(3):
        alone, alone_flagged = estimate(row_sums[g : g + 1], d[g, :6, :6])
        assert estimates[g].tobytes() == alone[0].tobytes()
        assert flagged[g].tobytes() == alone_flagged[0].tobytes()


def test_anchor_count_comes_from_the_anchor_block():
    row_sums = _noisy_distance_stack()[1][:1]  # one (10, 10) matrix
    for d_y in (np.zeros((5, 4)), np.zeros(5), np.float64(0.0), np.zeros((2, 5, 5))):
        with pytest.raises(InputError, match="anchor distance block"):
            estimate(row_sums, d_y)
    with pytest.raises(UnderdeterminedFit, match="at least 2 anchors, got 1"):
        estimate(row_sums, np.zeros((1, 1)))


def test_localize_refuses_anchors_that_are_not_one_layout():
    anchors, row_sums = _readme_stack()
    for bad in (anchors[:, 0], anchors[None]):
        with pytest.raises(InputError, match=r"anchors must be an \(m, q\) array"):
            localize(bad, row_sums)
