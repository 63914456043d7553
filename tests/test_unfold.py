import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from reference_solvers import oracle_bound, reference_localize

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


def test_restarts_seed_and_column_do_not_change_results():
    rng = np.random.default_rng(13)
    anchors = rng.uniform(0, 1, (5, 2))
    delta = rng.uniform(0, 1.5, 5)
    a = unloc_localize(anchors, delta, SolverOptions(seed=7))
    for opts, column in ((SolverOptions(seed=8), 0), (SolverOptions(restarts=1), 3)):
        _assert_identical(unloc_localize(anchors, delta, opts, column=column), a)


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


# -- exact solver against the multi-start and grid oracles -----------------


def _assert_identical(result, expected):
    assert result.position.tobytes() == expected.position.tobytes()
    assert result.restart_costs.tobytes() == expected.restart_costs.tobytes()
    assert np.float64(result.cost).tobytes() == np.float64(expected.cost).tobytes()
    assert result.iterations == expected.iterations
    assert result.converged == expected.converged
    assert result.well_posed == expected.well_posed


def _assert_same(result, expected):
    """The same optimum as the multi-start reference: the cost is not
    above the reference's, and the problem is flagged alike."""
    assert result.cost <= expected.cost * (1.0 + 1e-9) + 1e-24
    assert result.well_posed == expected.well_posed
    assert result.converged


def _assert_exact(problem, result):
    """Cost not above either oracle's, reported at the returned position,
    with the root converged and the bookkeeping of a single start."""
    assert result.cost <= oracle_bound(problem.anchors, problem.delta)
    cost = unfolding_cost(result.position, problem.anchors, problem.delta)
    assert result.cost == pytest.approx(cost, rel=1e-12, abs=1e-30)
    assert result.converged and result.well_posed == problem.well_posed
    assert result.winning_restart == 0 and result.restart_costs.tolist() == [result.cost]


def _random_problems(rng, anchor_counts, noise, q=2):
    problems = []
    for m in anchor_counts:
        anchors = rng.uniform(0, 1, (m, q))
        delta = _delta(anchors, rng.uniform(0, 1, q))
        delta = delta + rng.normal(0.0, noise, m) if noise else delta
        problems.append(UnfoldingProblem(anchors, delta))
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
    if options == "capped":
        # the cap bounds the root-finder's steps; a capped root is reported
        # as not converged, never as a wrong converged answer
        assert max(r.iterations for r in results) <= opts.max_iterations
        uncapped = solve_unfolding(problems)
        for result, full in zip(results, uncapped):
            if result.converged:
                _assert_identical(result, full)
            else:
                assert result.iterations == opts.max_iterations
        return
    for problem, result in zip(problems, results):
        _assert_exact(problem, result)


def _collinear(noise):
    rng = np.random.default_rng(31)
    anchors = np.outer(rng.uniform(0, 1, 6), [1.0, 0.5]) + [0.2, 0.1]
    delta = _delta(anchors, [0.3, 0.8]) + rng.normal(0.0, noise, 6)
    return UnfoldingProblem(anchors, delta)


# symmetric about the x-axis, with every anchor at the same squared
# distance 1.25: phi has no root inside its interval (the hard case), and
# the two optima (0, +-0.612) are mirror images
_HARD_CASE = UnfoldingProblem([[-1.0, 0.0], [1.0, 0.0], [0.0, -0.5], [0.0, 0.5]], np.full(4, 1.25))

_DEGENERATE = {
    "collinear": lambda: _collinear(0.0),
    "collinear-noisy": lambda: _collinear(0.05),
    "hard-case": lambda: _HARD_CASE,
    "coincident": lambda: UnfoldingProblem([[0.5, 0.5]] * 3, [0.04, 0.09, 0.01]),
    "negative-delta": lambda: UnfoldingProblem([[0.5, 0.5]], [-0.3]),
    "planar-in-3d": lambda: UnfoldingProblem(
        np.hstack([SQUARE, np.zeros((4, 1))]), _delta(SQUARE, [0.2, 0.7]) + 0.09
    ),
}


@pytest.mark.filterwarnings("ignore::ordinal_unloc.core.IllPosedWarning")
@pytest.mark.parametrize("case", list(_DEGENERATE))
def test_degenerate_geometry_matches_oracles(case):
    problem = _DEGENERATE[case]()
    (result,) = solve_unfolding([problem])
    _assert_exact(problem, result)


@pytest.mark.parametrize("target", [(0.3, 0.8), (0.7, -0.4), (1.5, 0.2)])
def test_near_collinear_noiseless_cost_is_roundoff(target):
    # the middle anchor is 1e-3 off the line through the others; the
    # secular equation, formed from A^T A, squares that conditioning and
    # leaves about 1e-21 of cost until the Newton step on J removes it
    anchors = np.array([[0.1, 0.2], [0.6, 0.451], [0.9, 0.6]])
    delta = _delta(anchors, target)
    result = unloc_localize(anchors, delta)
    assert result.cost <= 1e-24 * (1.0 + (delta**2).sum())
    np.testing.assert_allclose(result.position, target, rtol=0, atol=1e-12)


def test_hard_case_takes_the_null_vector():
    (result,) = solve_unfolding([_HARD_CASE])
    assert result.iterations == 0
    # phi(0) = 0.875 - 1.25 here, so the null-vector component is sqrt(0.375)
    np.testing.assert_allclose(np.abs(result.position), [0.0, np.sqrt(1.25 - 0.875)], atol=1e-15)


@pytest.mark.filterwarnings("ignore::ordinal_unloc.core.IllPosedWarning")
def test_mixed_batch_matches_each_problem_alone():
    rng = np.random.default_rng(21)
    counts = [5, 20, 3, 5, 2, 20, 3, 10, 5, 1]
    problems = _random_problems(rng, counts, 0.1) + _random_problems(rng, counts, 0.0, q=3)
    problems += [_collinear(0.05), _HARD_CASE]
    problems.insert(4, None)
    results = solve_unfolding(problems)
    assert results[4] is None
    for problem, result in zip(problems, results):
        if problem is None:
            continue
        (alone,) = solve_unfolding([problem])
        _assert_identical(result, alone)
        _assert_exact(problem, result)


def test_wide_batch_matches_reference():
    rng = np.random.default_rng(22)
    problems = _random_problems(rng, [380] * 4, 0.05) + _random_problems(rng, [380], 0.0)
    for problem, result in zip(problems, solve_unfolding(problems)):
        _assert_exact(problem, result)


def test_unloc_localize_matches_reference():
    rng = np.random.default_rng(23)
    anchors = rng.uniform(0, 1, (7, 2))
    delta = rng.uniform(0, 1.5, 7)
    _assert_exact(
        UnfoldingProblem(anchors, delta),
        unloc_localize(anchors, delta, SolverOptions(seed=5), column=2),
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
