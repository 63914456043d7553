import warnings
from typing import NamedTuple

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
    localize_all,
    solve_unfolding_arrays,
    unloc_localize,
)
from reference_solvers import oracle_bound, reference_localize, unfolding_cost, unfolding_gradient

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
    result = unloc_localize(anchors, delta)
    # one exact solve stands for every restart: the winner is the first
    assert result.winning_restart == 0 and result.converged
    assert result.cost == pytest.approx(unfolding_cost(result.position, anchors, delta))


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
    with pytest.raises(InputError, match="^cannot localize with zero anchors$"):
        unloc_localize(np.empty((0, 2)), [])
    with pytest.raises(InputError, match="^delta length 3 != anchor count 4$"):
        unloc_localize(SQUARE, np.ones(3))
    with pytest.raises(InputError, match="^delta entries must be finite$"):
        unloc_localize(SQUARE, [1.0, np.inf, 1.0, 1.0])
    with pytest.raises(ConfigError):
        SolverOptions(restarts=0)


def test_localize_all_squares_by_default():
    x_true = np.array([0.4, 0.8])
    d = np.sqrt(_delta(SQUARE, x_true))
    est = EstimatedDistanceMatrix(d[:, None])
    (result,) = localize_all(SQUARE, est)
    np.testing.assert_allclose(result.position, x_true, atol=1e-7)


def test_localize_all_negative_estimates_survive_squaring():
    x_true = np.array([0.4, 0.8])
    d = np.sqrt(_delta(SQUARE, x_true))
    d[0] = -d[0]
    est = EstimatedDistanceMatrix(d[:, None])
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


class Solved(NamedTuple):
    """One problem's row of a ``solve_unfolding_arrays`` batch."""

    position: np.ndarray
    cost: float
    iterations: int
    converged: bool


def _solve_batch(problems):
    """Solve (anchors, delta) problems of one dimension in one
    ``solve_unfolding_arrays`` call."""
    arrays = solve_unfolding_arrays(
        np.concatenate([anchors for anchors, _ in problems]),
        np.concatenate([delta for _, delta in problems]),
        [len(anchors) for anchors, _ in problems],
    )
    return [Solved(*row) for row in zip(*arrays)]


def _assert_identical(result, expected):
    assert result.position.tobytes() == expected.position.tobytes()
    assert np.float64(result.cost).tobytes() == np.float64(expected.cost).tobytes()
    assert result.iterations == expected.iterations
    assert result.converged == expected.converged


def _assert_same(result, expected):
    """The same optimum as the multi-start reference: the cost is not
    above the reference's, and the problem is flagged alike."""
    assert result.cost <= expected.cost * (1.0 + 1e-9) + 1e-24
    assert result.well_posed == expected.well_posed
    assert result.converged


def _assert_exact(problem, result, oracle=None):
    """Cost not above either oracle's (the multi-start one run with
    ``oracle`` options), reported at the returned position, with the root
    converged."""
    anchors, delta = problem
    assert result.cost <= oracle_bound(anchors, delta, oracle)
    cost = unfolding_cost(result.position, anchors, delta)
    assert result.cost == pytest.approx(cost, rel=1e-12, abs=1e-30)
    assert result.converged


def _random_problems(rng, anchor_counts, noise, q=2):
    problems = []
    for m in anchor_counts:
        anchors = rng.uniform(0, 1, (m, q))
        delta = _delta(anchors, rng.uniform(0, 1, q))
        delta = delta + rng.normal(0.0, noise, m) if noise else delta
        problems.append((anchors, delta))
    return problems


@pytest.mark.filterwarnings("ignore::ordinal_unloc.core.IllPosedWarning")
@pytest.mark.parametrize("options", ["default", "one-restart", "capped"])
@pytest.mark.parametrize("noise", [0.0, 0.1])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 20])
def test_batched_solver_matches_reference(monkeypatch, m, noise, options):
    """The exact solver's cost is not above the oracles', whether the
    multi-start oracle descends from 8 starts or from the centroid alone
    ("one-restart").  Under a cap of 3 root-finder steps ("capped"), a
    capped root is reported as not converged, never as a wrong converged
    answer."""
    rng = np.random.default_rng(1000 * m + int(10 * noise))
    problems = _random_problems(rng, [m] * 12, noise)
    if options == "capped":
        monkeypatch.setattr(unfold, "_MAX_ITERATIONS", 3)
        results = _solve_batch(problems)
        monkeypatch.undo()
        assert max(r.iterations for r in results) <= 3
        uncapped = _solve_batch(problems)
        for result, full in zip(results, uncapped):
            if result.converged:
                _assert_identical(result, full)
            else:
                assert result.iterations == 3
        return
    oracle = SolverOptions(restarts=1) if options == "one-restart" else None
    for problem, result in zip(problems, _solve_batch(problems)):
        _assert_exact(problem, result, oracle)


def _collinear(noise):
    rng = np.random.default_rng(31)
    anchors = np.outer(rng.uniform(0, 1, 6), [1.0, 0.5]) + [0.2, 0.1]
    delta = _delta(anchors, [0.3, 0.8]) + rng.normal(0.0, noise, 6)
    return anchors, delta


# symmetric about the x-axis, with every anchor at the same squared
# distance 1.25: phi has no root inside its interval (the hard case), and
# the two optima (0, +-0.612) are mirror images
_HARD_CASE = (np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -0.5], [0.0, 0.5]]), np.full(4, 1.25))

_DEGENERATE = {
    "collinear": lambda: _collinear(0.0),
    "collinear-noisy": lambda: _collinear(0.05),
    "hard-case": lambda: _HARD_CASE,
    "coincident": lambda: (np.array([[0.5, 0.5]] * 3), np.array([0.04, 0.09, 0.01])),
    "negative-delta": lambda: (np.array([[0.5, 0.5]]), np.array([-0.3])),
    "planar-in-3d": lambda: (
        np.hstack([SQUARE, np.zeros((4, 1))]), _delta(SQUARE, [0.2, 0.7]) + 0.09
    ),
}


@pytest.mark.filterwarnings("ignore::ordinal_unloc.core.IllPosedWarning")
@pytest.mark.parametrize("case", list(_DEGENERATE))
def test_degenerate_geometry_matches_oracles(case):
    anchors, delta = problem = _DEGENERATE[case]()
    result = unloc_localize(anchors, delta)
    _assert_exact(problem, result)
    m, q = anchors.shape
    assert result.well_posed == (m >= q + 1)
    assert result.winning_restart == 0


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
    result = unloc_localize(*_HARD_CASE)
    assert result.iterations == 0
    # phi(0) = 0.875 - 1.25 here, so the null-vector component is sqrt(0.375)
    np.testing.assert_allclose(np.abs(result.position), [0.0, np.sqrt(1.25 - 0.875)], atol=1e-15)


@pytest.mark.filterwarnings("ignore::ordinal_unloc.core.IllPosedWarning")
def test_mixed_batch_matches_each_problem_alone():
    rng = np.random.default_rng(21)
    counts = [5, 20, 3, 5, 2, 20, 3, 10, 5, 1]
    problems = _random_problems(rng, counts, 0.1) + _random_problems(rng, counts, 0.0, q=3)
    problems += [_collinear(0.05), _HARD_CASE]
    for q in (2, 3):
        batch = [p for p in problems if p[0].shape[1] == q]
        for problem, result in zip(batch, _solve_batch(batch)):
            _assert_identical(result, unloc_localize(*problem))
            _assert_exact(problem, result)


def test_wide_batch_matches_reference():
    rng = np.random.default_rng(22)
    problems = _random_problems(rng, [380] * 4, 0.05) + _random_problems(rng, [380], 0.0)
    for problem, result in zip(problems, _solve_batch(problems)):
        _assert_exact(problem, result)


def test_unloc_localize_matches_reference():
    rng = np.random.default_rng(23)
    anchors = rng.uniform(0, 1, (7, 2))
    delta = rng.uniform(0, 1.5, 7)
    _assert_exact((anchors, delta), unloc_localize(anchors, delta))
def _ill_posed_warnings(solve):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = solve()
    return results, sum(w.category is IllPosedWarning for w in caught)


def test_ill_posed_warning_once_per_problem():
    rng = np.random.default_rng(24)
    anchors = rng.uniform(0, 1, (2, 2))
    d = np.sqrt(_delta(anchors, rng.uniform(0, 1, 2)))[:, None] * [1.0, 1.1, 0.9]
    est = EstimatedDistanceMatrix(d)
    results, count = _ill_posed_warnings(lambda: localize_all(anchors, est))
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
    est = EstimatedDistanceMatrix(d)
    results = localize_all(anchors, est)
    assert results[1] is None
    for j in (0, 2):
        expected = reference_localize(anchors, d[:, j] ** 2, SolverOptions(seed=4), j)
        _assert_same(results[j], expected)
