"""Unfolding localization: recover a point from squared distances to anchors.

The cost J(x) = sum_i (||x - y_i||^2 - delta_i)^2 is a quartic with
possible local minima, so the solver runs a damped-Newton descent from
multiple starts (anchor centroid plus uniform samples in the anchor
bounding box) and keeps the best terminal point.

Every entry point goes through ``solve_unfolding``, which runs all
(problem x restart) rows of the problems that share an anchor shape in
one batch.  Each row gets the same arithmetic as its problem solved
alone, so no result depends on what else shares its batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, IllPosedWarning, InputError, _frozen
from .funclearn import EstimatedDistanceMatrix


@dataclass(frozen=True)
class SolverOptions:
    restarts: int = 8
    max_iterations: int = 500
    gradient_tolerance: float = 1e-9  # relative: ||grad|| <= tol * (1 + |J|)
    initial_damping: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not (self.gradient_tolerance > 0 and self.initial_damping > 0):
            raise ConfigError("tolerances must be positive")


@dataclass(frozen=True)
class LocalizationResult:
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
    """One target: anchors (m x q), squared-distance targets delta (m,),
    and the (seed, column) key of its restart stream."""

    anchors: np.ndarray
    delta: np.ndarray
    seed: int = 0
    column: int = 0

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


def _residuals(x, anchors, delta):
    """Per-row offsets, residuals and cost; anchors and delta are per row."""
    u = x[:, None, :] - anchors
    r = (u**2).sum(axis=2) - delta
    return u, r, (r**2).sum(axis=1)


def _gradients(u, r):
    return 4.0 * (r[:, :, None] * u).sum(axis=1)


def _hessians(u, r, eye):
    return 4.0 * r.sum(axis=1)[:, None, None] * eye + 8.0 * np.matmul(u.transpose(0, 2, 1), u)


def _row_norms(v):
    """``np.linalg.norm(v, axis=1)``, by the formula it uses for real rows."""
    return np.sqrt((v * v).sum(axis=1))


def _dot_norms(v):
    """Row norms as ``np.linalg.norm`` computes them for one vector (a BLAS
    dot product), which can differ in the last bit from ``norm(axis=1)``."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _lstsq_fallback(systems, grad, owner):
    """Steps after a stacked solve met a singular matrix.  Each problem is
    solved on its own rows, so a singular problem cannot change its
    batch-mates; a problem with a singular row takes least-squares steps
    on all its rows."""
    step = np.empty_like(grad)
    for p in np.unique(owner):
        rows = owner == p
        try:
            step[rows] = np.linalg.solve(systems[rows], -grad[rows][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step[rows] = [
                np.linalg.lstsq(a, -g, rcond=None)[0] for a, g in zip(systems[rows], grad[rows])
            ]
    return step


def _descend(anchors, delta, owner, x, opts):
    """Damped-Newton (Levenberg-style) descent over (problem x restart) rows.

    ``owner`` maps each row to its problem in ``anchors`` (P, m, q) and
    ``delta`` (P, m).  A row leaves the working arrays once its gradient
    meets the relative tolerance or it stalls; it never changes after
    that.  Returns final positions and costs per row, and per problem the
    number of passes in which it had an active row.
    """
    x = np.array(x, dtype=float)
    x_out, cost_out = np.empty_like(x), np.empty(x.shape[0])
    iterations = np.zeros(anchors.shape[0], dtype=int)
    rows = np.arange(x.shape[0])
    a, d = anchors[owner], delta[owner]
    eye = np.eye(x.shape[1])
    lam = np.full(rows.size, opts.initial_damping)
    # stalled restarts (no representable progress) are frozen so one bad
    # start cannot pin its problem at the iteration cap
    frozen = np.zeros(rows.size, dtype=bool)
    u, r, cost = _residuals(x, a, d)
    for _ in range(opts.max_iterations):
        grad = _gradients(u, r)
        gnorm = _row_norms(grad)
        active = ~frozen & (gnorm > opts.gradient_tolerance * (1.0 + np.abs(cost)))
        if not active.all():
            x_out[rows[~active]] = x[~active]
            cost_out[rows[~active]] = cost[~active]
            rows, x, lam, u, r, cost, a, d, grad = (
                v[active] for v in (rows, x, lam, u, r, cost, a, d, grad)
            )
            if rows.size == 0:
                break
        # repeated indices add once: a problem counts each pass in which
        # any of its rows is active
        iterations[owner[rows]] += 1
        hess = _hessians(u, r, eye)
        scale = 1.0 + np.abs(hess).max(axis=(1, 2))
        systems = hess + (lam * scale)[:, None, None] * eye
        try:
            step = np.linalg.solve(systems, -grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = _lstsq_fallback(systems, grad, owner[rows])
        trial = x + step
        trial_u, trial_r, trial_cost = _residuals(trial, a, d)
        accept = trial_cost < cost
        improvement = cost - trial_cost
        step_norm = _row_norms(step)
        frozen = accept & (
            (improvement <= 1e-14 * (1.0 + np.abs(cost)))
            | (step_norm <= 1e-12 * (1.0 + _row_norms(x)))
        )
        np.copyto(x, trial, where=accept[:, None])
        np.copyto(u, trial_u, where=accept[:, None, None])
        np.copyto(r, trial_r, where=accept[:, None])
        np.copyto(cost, trial_cost, where=accept)
        lam = np.where(accept, np.maximum(lam * 0.3, 1e-12), lam * 10.0)
        frozen |= ~accept & (lam > 1e12)
    x_out[rows] = x
    cost_out[rows] = cost
    return x_out, cost_out, iterations


def _newton_polish(anchors, delta, owner, x, cost, opts):
    """Drive the gradient down by pure Newton steps once cost decreases are
    no longer representable; at most 8 per row, accepted only while the
    cost does not rise and the gradient norm falls.  A singular Hessian
    stops its row.  Returns positions, costs and gradient norms per row."""
    x, cost = x.copy(), cost.copy()
    a, d = anchors[owner], delta[owner]
    eye = np.eye(x.shape[1])
    u, r, _ = _residuals(x, a, d)
    grad = _gradients(u, r)
    gnorm = _dot_norms(grad)
    live = ~(gnorm <= opts.gradient_tolerance * (1.0 + np.abs(cost)))
    rows = np.flatnonzero(live)
    u, r, grad, a, d = u[live], r[live], grad[live], a[live], d[live]
    for _ in range(8):
        if rows.size == 0:
            break
        hess = _hessians(u, r, eye)
        solved = np.ones(rows.size, dtype=bool)
        try:
            step = np.linalg.solve(hess, -grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.zeros_like(grad)
            for i in range(rows.size):
                try:
                    step[i] = np.linalg.solve(hess[i], -grad[i])
                except np.linalg.LinAlgError:
                    solved[i] = False
        trial = x[rows] + step
        u, r, trial_cost = _residuals(trial, a, d)
        grad = _gradients(u, r)
        trial_gnorm = _dot_norms(grad)
        c = cost[rows]
        # ulp-level cost increases are rounding noise at this resolution
        accept = solved & ~(
            (trial_cost > c + 1e-12 * (1.0 + np.abs(c))) | (trial_gnorm >= gnorm[rows])
        )
        done = rows[accept]
        x[done], cost[done], gnorm[done] = trial[accept], trial_cost[accept], trial_gnorm[accept]
        keep = accept & ~(
            trial_gnorm <= opts.gradient_tolerance * (1.0 + np.abs(trial_cost))
        )
        rows, u, r, grad, a, d = rows[keep], u[keep], r[keep], grad[keep], a[keep], d[keep]
    return x, cost, gnorm


def _starting_points(anchors, opts, rng):
    centroid = anchors.mean(axis=0)
    lo = anchors.min(axis=0)
    hi = anchors.max(axis=0)
    extra = rng.uniform(lo, hi, size=(opts.restarts - 1, anchors.shape[1]))
    return np.vstack([centroid[None, :], extra])


def _solve_group(problems, opts):
    """Problems sharing one anchor shape, all rows in one batch."""
    n_restarts = opts.restarts
    anchors = np.stack([p.anchors for p in problems])
    delta = np.stack([p.delta for p in problems])
    starts = np.concatenate([
        _starting_points(p.anchors, opts, np.random.default_rng([p.seed, p.column]))
        for p in problems
    ])  # fmt: skip
    owner = np.repeat(np.arange(len(problems)), n_restarts)
    x, cost, iterations = _descend(anchors, delta, owner, starts, opts)
    x, cost, gnorm = _newton_polish(anchors, delta, owner, x, cost, opts)
    results = []
    for i, problem in enumerate(problems):
        rows = slice(i * n_restarts, (i + 1) * n_restarts)
        costs = cost[rows]
        winner = int(np.argmin(costs))  # ties break to the lowest restart index
        best = float(costs[winner])
        converged = gnorm[rows][winner] <= opts.gradient_tolerance * (1.0 + abs(best))
        results.append(
            LocalizationResult(
                position=x[rows][winner],
                cost=best,
                iterations=int(iterations[i]),
                winning_restart=winner,
                converged=bool(converged),
                well_posed=problem.well_posed,
                restart_costs=costs,
            )
        )
    return results


def solve_unfolding(
    problems: list[UnfoldingProblem | None], opts: SolverOptions | None = None
) -> list[LocalizationResult | None]:
    """Minimize the unfolding cost of many problems in one batched run.

    Problems are grouped by anchor shape (never padded), and each group
    runs the descent and the Newton polish over all its (problem x
    restart) rows at once.  Every result is the one the problem gets when
    solved alone.  ``opts.seed`` is not used: each problem carries the
    seed of its restart stream.  None entries come back as None.
    """
    opts = opts or SolverOptions()
    results: list[LocalizationResult | None] = [None] * len(problems)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, problem in enumerate(problems):
        if problem is not None:
            groups.setdefault(problem.anchors.shape, []).append(i)
    for members in groups.values():
        solved = _solve_group([problems[i] for i in members], opts)
        for i, result in zip(members, solved):
            results[i] = result
    return results


def unloc_localize(
    anchors,
    delta,
    opts: SolverOptions | None = None,
    column: int = 0,
) -> LocalizationResult:
    """Minimize the unfolding cost over multiple restarts.

    ``column`` keys the restart RNG stream so multi-target solves have
    independent but reproducible starts.
    """
    opts = opts or SolverOptions()
    (result,) = solve_unfolding([UnfoldingProblem(anchors, delta, opts.seed, column)], opts)
    return result


def column_problems(
    anchors, d_hat: EstimatedDistanceMatrix, seed: int = 0
) -> list[UnfoldingProblem | None]:
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
            problems.append(UnfoldingProblem(anchors, d_hat.values[:, j] ** 2, seed, j))
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
    opts = opts or SolverOptions()
    return solve_unfolding(column_problems(anchors, d_hat, opts.seed), opts)
