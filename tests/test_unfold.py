import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinal_unloc import unfold
from ordinal_unloc.core import ConfigError, IllPosedWarning, InputError
from ordinal_unloc.funclearn import EstimatedDistanceMatrix
from ordinal_unloc.unfold import (
    LocalizationResult,
    SolverOptions,
    UnfoldingProblem,
    localize_all,
    solve_unfolding,
    unfolding_cost,
    unfolding_gradient,
    unloc_localize,
)
from reference_solvers import reference_localize

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _delta(anchors, x):
    return ((np.asarray(x) - anchors) ** 2).sum(axis=1)


def test_cost_worked_example():
    # unit square anchors, x at the center, delta = 0 everywhere:
    # each squared distance is 0.5, so J = 4 * 0.25 = 1
    assert unfolding_cost([0.5, 0.5], SQUARE, np.zeros(4)) == pytest.approx(1.0)


def test_cost_zero_at_truth():
    x = np.array([0.3, 0.7])
    assert unfolding_cost(x, SQUARE, _delta(SQUARE, x)) == 0.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    anchors = rng.uniform(0, 1, (5, 2))
    delta = rng.uniform(0, 2, 5)
    x = rng.uniform(0, 1, 2)
    g = unfolding_gradient(x, anchors, delta)
    eps = 1e-6
    for q in range(2):
        e = np.zeros(2)
        e[q] = eps
        fd = (
            unfolding_cost(x + e, anchors, delta) - unfolding_cost(x - e, anchors, delta)
        ) / (2 * eps)
        assert g[q] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_gradient_zero_at_global_minimum():
    x = np.array([0.25, 0.6])
    np.testing.assert_allclose(unfolding_gradient(x, SQUARE, _delta(SQUARE, x)), 0.0)


def test_exact_recovery_noiseless():
    x_true = np.array([0.25, 0.25])
    result = unloc_localize(SQUARE, _delta(SQUARE, x_true))
    assert result.converged and result.well_posed
    np.testing.assert_allclose(result.position, x_true, atol=1e-7)
    assert result.cost < 1e-18


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_exact_recovery_random_geometry(seed):
    rng = np.random.default_rng(seed)
    anchors = rng.uniform(0, 1, (6, 2))
    x_true = rng.uniform(0, 1, 2)
    result = unloc_localize(anchors, _delta(anchors, x_true))
    assert result.cost <= 1e-12
    np.testing.assert_allclose(result.position, x_true, atol=1e-5)


def test_winner_dominates_restarts():
    rng = np.random.default_rng(12)
    anchors = rng.uniform(0, 1, (5, 2))
    delta = rng.uniform(0, 1.5, 5)  # generally infeasible, nonzero residual
    result = unloc_localize(anchors, delta, SolverOptions(restarts=10))
    assert result.cost == result.restart_costs.min()
    assert result.winning_restart == int(np.argmin(result.restart_costs))
    assert result.converged


def test_determinism_and_seed_sensitivity():
    rng = np.random.default_rng(13)
    anchors = rng.uniform(0, 1, (5, 2))
    delta = rng.uniform(0, 1.5, 5)
    a = unloc_localize(anchors, delta, SolverOptions(seed=7))
    b = unloc_localize(anchors, delta, SolverOptions(seed=7))
    np.testing.assert_array_equal(a.position, b.position)
    np.testing.assert_array_equal(a.restart_costs, b.restart_costs)
    c = unloc_localize(anchors, delta, SolverOptions(seed=8))
    assert not np.array_equal(a.restart_costs, c.restart_costs)


def test_column_keys_restart_streams():
    rng = np.random.default_rng(14)
    anchors = rng.uniform(0, 1, (5, 2))
    delta = rng.uniform(0, 1.5, 5)
    a = unloc_localize(anchors, delta, column=0)
    b = unloc_localize(anchors, delta, column=1)
    assert not np.array_equal(a.restart_costs, b.restart_costs)


def test_underdetermined_warns_not_fails():
    x_true = np.array([0.5, 0.25])
    # axis-aligned pairs collapse the start box onto the symmetry line,
    # so pick a diagonal pair
    anchors = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.warns(IllPosedWarning):
        result = unloc_localize(anchors, _delta(anchors, x_true))
    assert not result.well_posed
    # two anchors in 2-D leave a reflection ambiguity but the cost is still 0
    assert result.cost < 1e-15


def test_input_validation():
    with pytest.raises(InputError):
        unloc_localize(SQUARE, np.ones(3))
    with pytest.raises(InputError):
        unloc_localize(SQUARE, [1.0, np.inf, 1.0, 1.0])
    with pytest.raises(ConfigError):
        SolverOptions(restarts=0)
    with pytest.raises(ConfigError):
        SolverOptions(gradient_tolerance=0.0)


def test_localize_all_squares_by_default():
    x_true = np.array([0.4, 0.8])
    d = np.sqrt(_delta(SQUARE, x_true))
    est = EstimatedDistanceMatrix(d[:, None], "recalibrated")
    (result,) = localize_all(SQUARE, est)
    np.testing.assert_allclose(result.position, x_true, atol=1e-7)


def test_localize_all_warns_on_preliminary_stage():
    est = EstimatedDistanceMatrix(np.ones((4, 1)), "preliminary")
    with pytest.warns(UserWarning, match="preliminary"):
        localize_all(SQUARE, est)


def test_localize_all_negative_estimates_survive_squaring():
    x_true = np.array([0.4, 0.8])
    d = np.sqrt(_delta(SQUARE, x_true))
    d[0] = -d[0]
    est = EstimatedDistanceMatrix(d[:, None], "recalibrated")
    assert est.negative_count == 1
    (result,) = localize_all(SQUARE, est)
    np.testing.assert_allclose(result.position, x_true, atol=1e-7)


def test_result_arrays_immutable():
    x_true = np.array([0.25, 0.25])
    result = unloc_localize(SQUARE, _delta(SQUARE, x_true))
    assert isinstance(result, LocalizationResult)
    with pytest.raises(ValueError):
        result.position[0] = 0.0


# -- batched solver against the per-problem reference ----------------------


def _assert_same(result, expected):
    assert result.position.tobytes() == expected.position.tobytes()
    assert result.restart_costs.tobytes() == expected.restart_costs.tobytes()
    assert np.float64(result.cost).tobytes() == np.float64(expected.cost).tobytes()
    assert result.iterations == expected.iterations
    assert result.winning_restart == expected.winning_restart
    assert result.converged == expected.converged
    assert result.well_posed == expected.well_posed


def _reference(problem, opts):
    return reference_localize(
        problem.anchors, problem.delta, replace(opts, seed=problem.seed), problem.column
    )


def _random_problems(rng, anchor_counts, noise, q=2):
    problems = []
    for k, m in enumerate(anchor_counts):
        anchors = rng.uniform(0, 1, (m, q))
        delta = _delta(anchors, rng.uniform(0, 1, q))
        delta = delta + rng.normal(0.0, noise, m) if noise else delta
        problems.append(UnfoldingProblem(anchors, delta, int(rng.integers(2**63)), k % 3))
    return problems


_OPTIONS = {
    "default": SolverOptions(),
    "one-restart": SolverOptions(restarts=1),
    "capped": SolverOptions(max_iterations=3),
}


@pytest.mark.filterwarnings("ignore::ordinal_unloc.core.IllPosedWarning")
@pytest.mark.parametrize("options", list(_OPTIONS))
@pytest.mark.parametrize("noise", [0.0, 0.1])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 20])
def test_batched_solver_matches_reference(m, noise, options):
    opts = _OPTIONS[options]
    rng = np.random.default_rng(1000 * m + int(10 * noise))
    problems = _random_problems(rng, [m] * 12, noise)
    results = solve_unfolding(problems, opts)
    for problem, result in zip(problems, results):
        _assert_same(result, _reference(problem, opts))
    if options == "capped" and m >= 3:
        # the cap is reached, so rows are still active when the loop ends
        assert max(r.iterations for r in results) == opts.max_iterations


@pytest.mark.filterwarnings("ignore::ordinal_unloc.core.IllPosedWarning")
def test_mixed_batch_matches_each_problem_alone():
    rng = np.random.default_rng(21)
    counts = [5, 20, 3, 5, 2, 20, 3, 10, 5, 1]
    problems = _random_problems(rng, counts, 0.1) + _random_problems(rng, counts, 0.0, q=3)
    problems.insert(4, None)
    opts = SolverOptions(restarts=4)
    results = solve_unfolding(problems, opts)
    assert results[4] is None
    for problem, result in zip(problems, results):
        if problem is None:
            continue
        (alone,) = solve_unfolding([problem], opts)
        _assert_same(result, alone)
        _assert_same(result, _reference(problem, opts))


def test_wide_batch_matches_reference():
    rng = np.random.default_rng(22)
    problems = _random_problems(rng, [380] * 4, 0.05)
    for problem, result in zip(problems, solve_unfolding(problems)):
        _assert_same(result, _reference(problem, SolverOptions()))


def test_unloc_localize_matches_reference():
    rng = np.random.default_rng(23)
    anchors = rng.uniform(0, 1, (7, 2))
    delta = rng.uniform(0, 1.5, 7)
    opts = SolverOptions(seed=5)
    _assert_same(
        unloc_localize(anchors, delta, opts, column=2),
        reference_localize(anchors, delta, opts, column=2),
    )


def _ill_posed_warnings(solve):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = solve()
    return results, sum(w.category is IllPosedWarning for w in caught)


def test_ill_posed_warning_once_per_problem():
    rng = np.random.default_rng(24)
    anchors = rng.uniform(0, 1, (2, 2))
    d = np.sqrt(_delta(anchors, rng.uniform(0, 1, 2)))[:, None] * [1.0, 1.1, 0.9]
    est = EstimatedDistanceMatrix(d, "recalibrated")
    results, count = _ill_posed_warnings(lambda: localize_all(anchors, est, SolverOptions(seed=3)))
    expected, expected_count = _ill_posed_warnings(
        lambda: [
            reference_localize(anchors, d[:, j] ** 2, SolverOptions(seed=3), j) for j in range(3)
        ]
    )
    assert count == expected_count == 3
    for result, reference in zip(results, expected):
        _assert_same(result, reference)


def test_localize_all_non_finite_column_gives_none():
    rng = np.random.default_rng(25)
    anchors = rng.uniform(0, 1, (5, 2))
    d = np.sqrt(np.stack([_delta(anchors, rng.uniform(0, 1, 2)) for _ in range(3)], axis=1))
    d[2, 1] = 1e200  # finite estimate whose square overflows
    est = EstimatedDistanceMatrix(d, "recalibrated")
    results = localize_all(anchors, est, SolverOptions(seed=4))
    assert results[1] is None
    for j in (0, 2):
        expected = reference_localize(anchors, d[:, j] ** 2, SolverOptions(seed=4), j)
        _assert_same(results[j], expected)


def test_singular_step_falls_back_per_problem():
    eye = np.eye(2)
    systems = np.stack([eye, 2 * eye, np.ones((2, 2)), eye])
    grad = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 1.0], [5.0, 6.0]])
    owner = np.array([0, 0, 1, 1])
    step = unfold._lstsq_fallback(systems, grad, owner)
    # problem 0 solves normally; problem 1 has a singular row, so all its
    # rows take least-squares steps
    solved = np.linalg.solve(systems[:2], -grad[:2, :, None])[:, :, 0]
    np.testing.assert_array_equal(step[:2], solved)
    for i in (2, 3):
        expected = np.linalg.lstsq(systems[i], -grad[i], rcond=None)[0]
        assert step[i].tobytes() == expected.tobytes()


@pytest.mark.parametrize("tolerance", [1e-9, 1e6])
def test_polish_gradient_norms_match_single_vector_norm(tolerance):
    # the polish and the converged flag compare np.linalg.norm of one
    # gradient vector (a BLAS dot), which differs in the last bit from
    # norm(axis=1) on about one 2-vector in twelve
    rng = np.random.default_rng(26)
    anchors = rng.uniform(0, 1, (3, 6, 2))
    delta = rng.uniform(0, 1, (3, 6))
    owner = np.repeat(np.arange(3), 100)
    x = rng.uniform(-1, 2, (300, 2))
    opts = SolverOptions(gradient_tolerance=tolerance)
    cost = np.array([unfolding_cost(p, anchors[o], delta[o]) for p, o in zip(x, owner)])
    points, costs, gnorm = unfold._newton_polish(anchors, delta, owner, x, cost, opts)
    for p, c, g, o in zip(points, costs, gnorm, owner):
        expected = np.linalg.norm(unfolding_gradient(p, anchors[o], delta[o]))
        assert g.tobytes() == expected.tobytes()
        assert c == unfolding_cost(p, anchors[o], delta[o])
