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
``solve_unfolding`` solves all problems of a call in one batch.  Each
problem's arithmetic touches only its own rows, so a result does not
depend on what else shares its batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, IllPosedWarning, InputError, _frozen
from .funclearn import EstimatedDistanceMatrix

# relative size below which an eigenvalue gap (or a curvature in the
# Newton polish) counts as zero, and below which the component of beta on
# the smallest eigenvalue's eigenvectors does (the hard case)
_GAP_TOLERANCE = 1e-12
_HARD_CASE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class SolverOptions:
    """``max_iterations`` caps the root-finder's Newton steps, and the root
    is accepted once ||grad J|| <= gradient_tolerance * (1 + J).

    ``restarts`` and ``seed`` are validated but do not affect results: the
    solver is exact and draws no random numbers.
    """

    restarts: int = 8
    max_iterations: int = 500
    gradient_tolerance: float = 1e-9  # relative: ||grad|| <= tol * (1 + |J|)
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not self.gradient_tolerance > 0:
            raise ConfigError("tolerances must be positive")


@dataclass(frozen=True)
class LocalizationResult:
    """``iterations`` counts the root-finder's steps (0 in the hard case),
    ``converged`` says the root met its tolerance, ``winning_restart`` is
    always 0 and ``restart_costs`` holds the one cost."""

    position: np.ndarray
    cost: float
    iterations: int
    winning_restart: int
    converged: bool
    well_posed: bool
    restart_costs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _frozen(self.position))
        object.__setattr__(self, "restart_costs", _frozen(self.restart_costs))


@dataclass(frozen=True)
class UnfoldingProblem:
    """One target: anchors (m x q) and squared-distance targets delta (m,)."""

    anchors: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        anchors = np.atleast_2d(np.asarray(self.anchors, dtype=float))
        delta = np.asarray(self.delta, dtype=float).ravel()
        m, q = anchors.shape
        if m == 0:
            raise InputError("cannot localize with zero anchors")
        if delta.shape[0] != m:
            raise InputError(f"delta length {delta.shape[0]} != anchor count {m}")
        if not np.all(np.isfinite(delta)):
            raise InputError("delta entries must be finite")
        if m < q + 1:
            warnings.warn(
                f"{m} anchors in {q}-D is below the well-posedness threshold {q + 1}",
                IllPosedWarning,
                stacklevel=3,
            )
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "delta", delta)

    @property
    def well_posed(self) -> bool:
        m, q = self.anchors.shape
        return m >= q + 1


def unfolding_cost(x, anchors, delta) -> float:
    """Sum of squared residuals between squared distances and targets delta."""
    x = np.asarray(x, dtype=float)
    anchors = np.asarray(anchors, dtype=float)
    r = ((x - anchors) ** 2).sum(axis=1) - np.asarray(delta, dtype=float)
    return float((r**2).sum())


def unfolding_gradient(x, anchors, delta) -> np.ndarray:
    """Analytic gradient: sum_i 4 (||x - y_i||^2 - delta_i)(x - y_i)."""
    x = np.asarray(x, dtype=float)
    anchors = np.asarray(anchors, dtype=float)
    u = x - anchors
    r = (u**2).sum(axis=1) - np.asarray(delta, dtype=float)
    return 4.0 * (r[:, None] * u).sum(axis=0)


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


def _find_roots(beta, e, s, m, shift, sum_b, sum_bb, lo, hi, opts):
    """Safeguarded Newton on phi over u in (lo, hi), all problems at once.

    Starts at lam = 0 (the unconstrained least-squares point, which is the
    root for noiseless data) when that lies in the bracket, else at hi.  A
    step that leaves the bracket is replaced by its midpoint.  A problem
    stops once the gradient of J at its iterate, 4 m phi x, meets the
    tolerance, or when its iterate stops moving; a stopped problem's u no
    longer changes.  Returns u, the step counts and the convergence flags.
    """
    u = np.where((shift > lo) & (shift < hi), shift, hi)
    active = np.ones(u.shape, dtype=bool)
    iterations = np.zeros(u.shape, dtype=int)
    for _ in range(opts.max_iterations):
        xt, norm2, phi, newton = _secular(u, beta, e, m, shift, sum_b)
        # J at the iterate from the per-problem sums (centred coordinates)
        cost = (
            m * norm2 * norm2 - 2.0 * norm2 * sum_b + sum_bb
            + 4.0 * (s * xt * xt).sum(axis=1) - 2.0 * (beta * xt).sum(axis=1)
        )  # fmt: skip
        done = 4.0 * m * np.abs(phi) * np.sqrt(norm2) <= opts.gradient_tolerance * (
            1.0 + np.abs(cost)
        )
        iterations += active
        left = phi > 0
        lo = np.where(left, u, lo)
        hi = np.where(left, hi, u)
        step = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
        active &= ~done & (step != u)
        if not active.any():
            break
        u = np.where(active, step, u)
    return u, iterations, done


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


def _solve_dimension(problems, opts):
    """Problems of one dimension q, any anchor counts, in one batch."""
    counts = np.array([p.anchors.shape[0] for p in problems])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    anchors = np.concatenate([p.anchors for p in problems])
    delta = np.concatenate([p.delta for p in problems])
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

    u = np.zeros(len(problems))
    iterations = np.zeros(len(problems), dtype=int)
    converged = hard.copy()
    soft = ~hard
    if soft.any():
        # the root has t(u) = ||x~||^2 >= 0, so it lies right of t's zero;
        # phi(u) <= ||beta||^2 / u^2 - t(u) is negative from hi on
        lo = np.maximum(0.0, -2.0 * m * t0)[soft]
        hi = 2.0 * np.maximum(4.0 * m * np.abs(t0), np.cbrt(4.0 * m * beta_sq))[soft]
        u[soft], iterations[soft], converged[soft] = _find_roots(
            beta[soft], e[soft], s[soft], m[soft], shift[soft], sum_b[soft], sum_bb[soft],
            lo, hi, opts,
        )  # fmt: skip

    pole = u[:, None] + e
    free = ~(hard[:, None] & at_pole)
    xt = np.divide(beta, pole, out=np.zeros_like(beta), where=free)
    xt[hard, 0] = np.copysign(np.sqrt(-phi0[hard]), beta[hard, 0])

    positions = centroid + (vectors * xt[:, None, :]).sum(axis=2)
    positions, costs = _newton_polish(positions, anchors, delta, counts, starts)
    return [
        LocalizationResult(
            position=positions[i],
            cost=float(costs[i]),
            iterations=int(iterations[i]),
            winning_restart=0,
            converged=bool(converged[i]),
            well_posed=problem.well_posed,
            restart_costs=costs[i : i + 1],
        )
        for i, problem in enumerate(problems)
    ]


def solve_unfolding(
    problems: list[UnfoldingProblem | None], opts: SolverOptions | None = None
) -> list[LocalizationResult | None]:
    """Minimize the unfolding cost of many problems in one batched run.

    Problems of any anchor count share one batch; a call that mixes
    dimensions solves one batch per dimension.  None entries come back as
    None.
    """
    opts = opts or SolverOptions()
    results: list[LocalizationResult | None] = [None] * len(problems)
    by_dimension: dict[int, list[int]] = {}
    for i, problem in enumerate(problems):
        if problem is not None:
            by_dimension.setdefault(problem.anchors.shape[1], []).append(i)
    for members in by_dimension.values():
        solved = _solve_dimension([problems[i] for i in members], opts)
        for i, result in zip(members, solved):
            results[i] = result
    return results


def unloc_localize(
    anchors,
    delta,
    opts: SolverOptions | None = None,
    column: int = 0,
) -> LocalizationResult:
    """Minimize the unfolding cost of one problem.

    ``column`` is accepted for callers that number their targets; it does
    not affect the result.
    """
    (result,) = solve_unfolding([UnfoldingProblem(anchors, delta)], opts)
    return result


def column_problems(anchors, d_hat: EstimatedDistanceMatrix) -> list[UnfoldingProblem | None]:
    """One problem per target column of an estimated distance matrix.

    Distance entries are squared to form delta; negative estimates become
    positive under squaring and are counted via
    ``EstimatedDistanceMatrix.negative_count`` upstream.  A column that
    fails validation yields None.
    """
    if d_hat.stage != "recalibrated":
        warnings.warn(
            f"localizing from stage {d_hat.stage!r} estimates", UserWarning, stacklevel=3
        )
    problems: list[UnfoldingProblem | None] = []
    for j in range(d_hat.n_targets):
        try:
            problems.append(UnfoldingProblem(anchors, d_hat.values[:, j] ** 2))
        except InputError:
            problems.append(None)
    return problems


def localize_all(
    anchors,
    d_hat: EstimatedDistanceMatrix,
    opts: SolverOptions | None = None,
) -> list[LocalizationResult | None]:
    """Solve every column of an estimated distance matrix in one batch.

    A failed column yields None without aborting the others.
    """
    return solve_unfolding(column_problems(anchors, d_hat), opts)
