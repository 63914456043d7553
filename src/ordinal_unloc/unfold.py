"""Unfolding localization: recover a point from squared distances to anchors.

The cost J(x) = sum_i (||x - y_i||^2 - delta_i)^2 is the squared-range
least-squares (SR-LS) cost of Beck, Stoica & Li, "Exact and approximate
solutions of source localization problems", IEEE Trans. Signal
Processing 56(5), 2008.  With z = (x, ||x||^2), rows A_i = [-2 y_i^T, 1]
and b_i = delta_i - ||y_i||^2, J = ||Az - b||^2 under the constraint
z^T D z + 2 f^T z = 0 (D = diag(1, ..., 1, 0), f = (0, ..., 0, -1/2)):
a generalized trust-region subproblem (More, Optim. Methods Softw. 1993)
whose global minimum is z(lam) = (A^T A + lam D)^-1 (A^T b - lam f) at
the root of a decreasing function of lam, phi(lam) = ||x(lam)||^2 - t(lam),
on the interval where A^T A + lam D is positive definite.

With the anchors centred on their centroid, A^T A is block diagonal, 4 Y^T Y
for x and m for t, so diagonalising Y^T Y = V diag(s) V^T diagonalises the
pair (A^T A, D).  In the shifted variable u = lam + 4 min(s) > 0, and with
e = 4 (s - min(s)) and beta = -2 V^T Y^T b,

    x~(u) = beta / (u + e),   t(u) = ((u - 4 min(s)) / 2 + sum(b)) / m,
    phi(u) = ||x~(u)||^2 - t(u),

which is convex and decreasing, so safeguarded Newton steps find its
root.  Singular Y^T Y (fewer than q + 1 anchors, collinear anchors) only
moves the interval's end to u = 0.  When phi has no sign change there
(the "hard case", beta vanishing on the eigenvectors of min(s) and
phi <= 0 at u = 0), the solution is x~ at u = 0 plus a null-vector
component that meets the constraint.  One Newton step on J itself then
removes the roundoff that forming A^T A leaves with near-collinear anchors.

Every problem reduces to these q-vectors whatever its anchor count, so
``solve_unfolding_arrays`` solves a batch of problems, given as stacked
anchor rows, delta rows and per-problem anchor counts, in one pass.
``solve_columns`` feeds it every target column of stacks of distance
estimates, and ``unloc_localize`` one problem.  Each problem's
arithmetic touches only its own rows, so a result does not depend on
what else shares its batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ConfigError, IllPosedWarning, InputError, _frozen
from .funclearn import EstimatedDistanceMatrix

# relative size below which an eigenvalue gap (or a curvature in the
# Newton polish) counts as zero, and below which the component of beta on
# the smallest eigenvalue's eigenvectors does (the hard case)
_GAP_TOLERANCE = 1e-12
_HARD_CASE_TOLERANCE = 1e-10
# the root-finder's step cap, and the relative gradient norm at which a
# root is accepted: ||grad J|| <= tol * (1 + |J|)
_MAX_ITERATIONS = 500
_GRADIENT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SolverOptions:
    """Validated but unused: the solver is exact, draws no random numbers
    and reads no options.  Accepted because existing callers, such as
    perfbench's workloads, pass ``restarts`` and ``seed``."""

    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class LocalizationResult:
    """``iterations`` counts the root-finder's steps (0 in the hard case),
    ``converged`` says the root met its tolerance or its iterate stopped
    moving, and ``winning_restart`` is always 0."""

    position: np.ndarray
    cost: float
    iterations: int
    winning_restart: int
    converged: bool
    well_posed: bool

    def __post_init__(self):
        object.__setattr__(self, "position", _frozen(self.position))


def warn_ill_posed(m, q, count=1, stacklevel=2):
    """One IllPosedWarning per problem, for ``count`` problems with m
    anchors in q-D, when m is below the well-posedness threshold q + 1."""
    if m < q + 1:
        for _ in range(count):
            warnings.warn(
                f"{m} anchors in {q}-D is below the well-posedness threshold {q + 1}",
                IllPosedWarning,
                stacklevel=stacklevel + 1,
            )


def _secular(u, beta, e, m, shift, sum_b):
    """x~(u), ||x~(u)||^2, phi(u) and the next iterate per problem.

    Two Newton steps are taken and the larger kept.  One is on phi, which
    is convex and decreasing.  The other solves 1/||x~|| = 1/sqrt(t), the
    same root for t > 0, which is concave and increasing, and nearly linear
    near a pole where phi grows like 1/u^2 (More & Sorensen's device for
    trust-region equations).  From either side of the root, each step
    lands at or left of it, so the larger is the better lower bound.
    """
    pole = u[:, None] + e
    xt = beta / pole
    sq = xt * xt
    norm2 = sq.sum(axis=1)
    t = ((u - shift) / 2.0 + sum_b) / m
    phi = norm2 - t
    slope = (sq / pole).sum(axis=1)  # -phi'(u) / 2 - 1 / (4 m)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = 1.0 / np.sqrt(norm2) - 1.0 / np.sqrt(t)
        dpsi = slope / norm2**1.5 + 0.25 / (m * t**1.5)
        step = np.fmax(phi / (2.0 * slope + 0.5 / m), -psi / dpsi)
    return xt, norm2, phi, u + step


def _find_roots(beta, e, s, m, shift, sum_b, sum_bb, lo, hi):
    """Safeguarded Newton on phi over u in (lo, hi), all problems at once.

    Starts at lam = 0 (the unconstrained least-squares point, which is the
    root for noiseless data) when that lies in the bracket, else at hi.  A
    step that leaves the bracket is replaced by its midpoint.  A problem
    stops once the gradient of J at its iterate, 4 m phi x, meets the
    tolerance, or when its iterate stops moving; a stopped problem's u no
    longer changes.  Returns u, the step counts and the convergence flags.

    A problem that stopped with phi finite counts as converged: its root is
    as close as the floats allow.  The tolerance alone would flag exact
    noiseless solves on large fields, since for a cost near 0 it is
    absolute while 4 m |phi| ||x|| is roundoff that grows with the cube of
    the field's scale.
    """
    u = np.where((shift > lo) & (shift < hi), shift, hi)
    active = np.ones(u.shape, dtype=bool)
    iterations = np.zeros(u.shape, dtype=int)
    for _ in range(_MAX_ITERATIONS):
        xt, norm2, phi, newton = _secular(u, beta, e, m, shift, sum_b)
        # J at the iterate from the per-problem sums (centred coordinates)
        cost = (
            m * norm2 * norm2 - 2.0 * norm2 * sum_b + sum_bb
            + 4.0 * (s * xt * xt).sum(axis=1) - 2.0 * (beta * xt).sum(axis=1)
        )  # fmt: skip
        done = 4.0 * m * np.abs(phi) * np.sqrt(norm2) <= _GRADIENT_TOLERANCE * (1.0 + np.abs(cost))
        iterations += active
        left = phi > 0
        lo = np.where(left, u, lo)
        hi = np.where(left, hi, u)
        step = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
        active &= ~done & (step != u)
        if not active.any():
            break
        u = np.where(active, step, u)
    # a stopped problem's u, and so its done and phi, are those it stopped at
    return u, iterations, done | (~active & np.isfinite(phi))


def _cost_terms(positions, anchors, delta, counts, starts):
    """Per-row offsets x - y_i and residuals, and per-problem costs."""
    u = np.repeat(positions, counts, axis=0) - anchors
    r = (u * u).sum(axis=1) - delta
    return u, r, np.add.reduceat(r * r, starts)


def _newton_polish(positions, anchors, delta, counts, starts):
    """One Newton step on J itself, kept where it lowers the cost.

    The secular equation is formed from A^T A, which squares the condition
    number of the anchor layout; near-collinear anchors then leave a
    roundoff error that one Newton step on J, whose Hessian does not
    square it, removes.  Directions of (near-)zero curvature are left
    alone, so a singular Hessian needs no special case.
    """
    u, r, costs = _cost_terms(positions, anchors, delta, counts, starts)
    grad = np.add.reduceat(r[:, None] * u, starts)  # grad J / 4
    hess = 2.0 * np.add.reduceat(u[:, :, None] * u[:, None, :], starts)
    hess += np.add.reduceat(r, starts)[:, None, None] * np.eye(u.shape[1])  # Hessian / 4
    h, w = np.linalg.eigh(hess)
    curved = h > _GAP_TOLERANCE * np.abs(h).max(axis=1, keepdims=True)
    along = np.divide((w * grad[:, :, None]).sum(axis=1), h, out=np.zeros_like(h), where=curved)
    trial = positions - (w * along[:, None, :]).sum(axis=2)
    _, _, trial_costs = _cost_terms(trial, anchors, delta, counts, starts)
    better = trial_costs < costs
    return np.where(better[:, None], trial, positions), np.where(better, trial_costs, costs)


def solve_unfolding_arrays(anchors, delta, counts):
    """Minimize the unfolding cost of many problems of one dimension q,
    given as arrays, in one batch.

    Problem p owns ``counts[p]`` consecutive rows of ``anchors`` (R, q) and
    ``delta`` (R,), in problem order.  Returns (positions (P, q), costs
    (P,), iterations (P,), converged (P,)), with the meaning of the
    ``LocalizationResult`` fields.  Each problem's arithmetic touches only
    its own rows, so a result does not depend on what else shares its
    batch.  Problems with fewer than q + 1 anchors are solved without a
    warning; ``warn_ill_posed`` is the caller's.
    """
    anchors = np.asarray(anchors, dtype=float)
    delta = np.asarray(delta, dtype=float)
    counts = np.asarray(counts, dtype=int)
    if anchors.ndim != 2 or delta.shape != (len(anchors),) or counts.sum() != len(anchors):
        raise InputError(
            f"anchor rows {anchors.shape} and deltas {delta.shape} do not match counts summing "
            f"to {counts.sum()}"
        )
    if np.any(counts < 1):
        raise InputError("cannot localize with zero anchors")
    if not np.all(np.isfinite(delta)):
        raise InputError("delta entries must be finite")
    if len(counts) == 0:
        q = anchors.shape[1]
        return np.empty((0, q)), np.empty(0), np.zeros(0, dtype=int), np.zeros(0, dtype=bool)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    m = counts.astype(float)

    # per-problem moments of the centred anchors, each summed over its own rows
    centroid = np.add.reduceat(anchors, starts) / m[:, None]
    y = anchors - np.repeat(centroid, counts, axis=0)
    b = delta - (y * y).sum(axis=1)
    scatter = np.add.reduceat(y[:, :, None] * y[:, None, :], starts)
    yb = np.add.reduceat(y * b[:, None], starts)
    sum_b = np.add.reduceat(b, starts)
    sum_bb = np.add.reduceat(b * b, starts)

    s, vectors = np.linalg.eigh(scatter)  # ascending, so s[:, 0] is the smallest
    beta = -2.0 * (vectors * yb[:, :, None]).sum(axis=1)
    e = 4.0 * (s - s[:, :1])
    shift = 4.0 * s[:, 0]  # u at lam = 0
    t0 = (sum_b - shift / 2.0) / m  # t at u = 0

    # the hard case: beta (numerically) zero where e is, and phi <= 0 at u = 0
    at_pole = e <= _GAP_TOLERANCE * e[:, -1:]
    beta_pole = np.where(at_pole, beta, 0.0)
    beta_sq = (beta * beta).sum(axis=1)
    xt0 = np.divide(beta, e, out=np.zeros_like(beta), where=~at_pole)  # x~ at u = 0
    phi0 = (xt0 * xt0).sum(axis=1) - t0
    hard = ((beta_pole * beta_pole).sum(axis=1) <= _HARD_CASE_TOLERANCE**2 * beta_sq) & (
        phi0 <= 0
    )

    u = np.zeros(len(counts))
    iterations = np.zeros(len(counts), dtype=int)
    converged = hard.copy()
    soft = ~hard
    if soft.any():
        # the root has t(u) = ||x~||^2 >= 0, so it lies right of t's zero;
        # phi(u) <= ||beta||^2 / u^2 - t(u) is negative from hi on
        lo = np.maximum(0.0, -2.0 * m * t0)[soft]
        hi = 2.0 * np.maximum(4.0 * m * np.abs(t0), np.cbrt(4.0 * m * beta_sq))[soft]
        u[soft], iterations[soft], converged[soft] = _find_roots(
            beta[soft], e[soft], s[soft], m[soft], shift[soft], sum_b[soft], sum_bb[soft],
            lo, hi,
        )  # fmt: skip

    pole = u[:, None] + e
    free = ~(hard[:, None] & at_pole)
    xt = np.divide(beta, pole, out=np.zeros_like(beta), where=free)
    xt[hard, 0] = np.copysign(np.sqrt(-phi0[hard]), beta[hard, 0])

    positions = centroid + (vectors * xt[:, None, :]).sum(axis=2)
    positions, costs = _newton_polish(positions, anchors, delta, counts, starts)
    return positions, costs, iterations, converged


def _result(positions, costs, iterations, converged, k, well_posed) -> LocalizationResult:
    """Problem k of a solved batch as a ``LocalizationResult``."""
    return LocalizationResult(
        position=positions[k],
        cost=float(costs[k]),
        iterations=int(iterations[k]),
        winning_restart=0,
        converged=bool(converged[k]),
        well_posed=well_posed,
    )


class ColumnSolution(NamedTuple):
    """One group's target columns, shaped like its estimates less the
    anchor axis: positions (G, ..., n, q), and per column the solved and
    converged masks, the costs and the step counts.  An unsolved column
    has NaN position and cost, 0 steps and is not converged."""

    positions: np.ndarray
    solved: np.ndarray
    converged: np.ndarray
    costs: np.ndarray
    iterations: np.ndarray


def _scatter(values, solved, fill):
    """Rows of ``values`` where ``solved`` is True, ``fill`` elsewhere."""
    out = np.full(solved.shape + values.shape[1:], fill, dtype=values.dtype)
    out[solved] = values
    return out


def solve_columns(groups) -> list[ColumnSolution]:
    """Localize every target column of every group in one solver batch.

    Each group is a pair of anchors (G, m, q) and distance estimates
    (G, ..., m, n): column j of ``estimates[g, ...]`` is one problem on
    the anchors ``anchors[g]``, whose delta is the column squared.  A
    column is solved when its squared estimates are all finite, and each
    solved problem with fewer than q + 1 anchors warns one
    IllPosedWarning.  All solved columns of all groups, which must share
    q, go to one ``solve_unfolding_arrays`` call; one ``ColumnSolution``
    per group comes back, and none for no groups.
    """
    anchor_rows, delta, counts, masks = [], [], [], []
    for anchors, estimates in groups:
        anchors = np.asarray(anchors, dtype=float)
        estimates = np.asarray(estimates, dtype=float)
        g, m, q = anchors.shape
        if estimates.ndim < 3 or len(estimates) != g or estimates.shape[-2] != m:
            raise InputError(f"estimates {estimates.shape} do not match anchors {anchors.shape}")
        if anchor_rows and anchor_rows[0].shape[1] != q:
            dims = f"{anchor_rows[0].shape[1]} and {q}"
            raise InputError(f"every group's anchors must share one dimension, got {dims}")
        sq = np.swapaxes(estimates, -1, -2) ** 2  # (G, ..., n, m)
        solved = np.isfinite(sq).all(axis=-1)
        layout = anchors.reshape((g,) + (1,) * (sq.ndim - 2) + (m, q))
        rows = np.broadcast_to(layout, sq.shape + (q,))[solved]
        anchor_rows.append(rows.reshape(-1, q))
        delta.append(sq[solved].ravel())
        counts.append(np.full(len(rows), m))
        masks.append(solved)
        warn_ill_posed(m, q, count=len(rows), stacklevel=3)
    if not masks:
        return []
    positions, costs, iterations, converged = solve_unfolding_arrays(
        np.concatenate(anchor_rows), np.concatenate(delta), np.concatenate(counts)
    )
    out, start = [], 0
    for solved in masks:
        part = slice(start, start + int(solved.sum()))
        out.append(
            ColumnSolution(
                _scatter(positions[part], solved, np.nan),
                solved,
                _scatter(converged[part], solved, False),
                _scatter(costs[part], solved, np.nan),
                _scatter(iterations[part], solved, 0),
            )
        )
        start = part.stop
    return out


def unloc_localize(anchors, delta) -> LocalizationResult:
    """Minimize the unfolding cost of one problem: anchors (m x q) and
    squared-distance targets delta (m,)."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    delta = np.asarray(delta, dtype=float).ravel()
    m, q = anchors.shape
    if m == 0:
        raise InputError("cannot localize with zero anchors")
    if delta.shape[0] != m:
        raise InputError(f"delta length {delta.shape[0]} != anchor count {m}")
    if not np.all(np.isfinite(delta)):
        raise InputError("delta entries must be finite")
    warn_ill_posed(m, q)
    return _result(*solve_unfolding_arrays(anchors, delta, [m]), 0, m >= q + 1)


def localize_all(anchors, d_hat: EstimatedDistanceMatrix) -> list[LocalizationResult | None]:
    """Solve every column of an estimated distance matrix in one batch.

    A column whose squared estimates are not all finite yields None
    without aborting the others.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    (out,) = solve_columns([(anchors[None], d_hat.values[None])])
    arrays = out.positions[0], out.costs[0], out.iterations[0], out.converged[0]
    well_posed = anchors.shape[0] >= anchors.shape[1] + 1
    return [_result(*arrays, j, well_posed) if ok else None for j, ok in enumerate(out.solved[0])]
