import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_field_distances
from ordinal_unloc.bench import kendall_tau
from ordinal_unloc.core import point_distances
from ordinal_unloc.ordinal import ComparisonNoiseModel, tensor_from_distances
from ordinal_unloc.pipeline import localize_from_tensor
from ordinal_unloc.unfold import SolverOptions


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
