"""Per-problem reference implementations kept as oracles for the exact
unfolding solver in ``unfold`` and the column-wise fits in ``funclearn``.

``reference_localize`` solves one unfolding problem by local descent: a
damped-Newton descent vectorized over its restarts, then a Newton polish
one restart at a time.  ``reference_grid`` evaluates the cost on nested
grids.  Neither is guaranteed to find the global minimum, but both return
a point and its cost, so the exact solver's cost must not be above the
smaller of the two (``oracle_bound``).  ``reference_preliminary`` and
``reference_recalibrate`` fit one linear map per column in a Python loop;
the column-wise fits must match them byte for byte.
"""

from __future__ import annotations

import warnings

import numpy as np

from ordinal_unloc.core import IllPosedWarning, InputError, OrdinalUnlocError, ProximityMatrix
from ordinal_unloc.funclearn import (
    SLOPE_FLOOR,
    DegenerateFitWarning,
    EstimatedDistanceMatrix,
    LinearMap,
    UnderdeterminedFit,
)
from ordinal_unloc.unfold import (
    LocalizationResult,
    SolverOptions,
    unfolding_cost,
    unfolding_gradient,
)


_INITIAL_DAMPING = 1e-3


def _descend(anchors, delta, starts, opts):
    """Damped-Newton (Levenberg-style) descent, vectorized over restarts.

    Returns (positions, costs, iterations_used).  A restart freezes once
    its gradient meets the relative tolerance.
    """
    x = np.array(starts, dtype=float)
    n_restarts, q = x.shape
    eye = np.eye(q)
    lam = np.full(n_restarts, _INITIAL_DAMPING)
    # stalled restarts (no representable progress) are frozen so one bad
    # start cannot pin the whole batch at the iteration cap
    frozen = np.zeros(n_restarts, dtype=bool)

    def residuals(pts):
        u = pts[:, None, :] - anchors[None, :, :]
        r = (u**2).sum(axis=2) - delta[None, :]
        return u, r, (r**2).sum(axis=1)

    u, r, cost = residuals(x)
    iterations = 0
    for _ in range(opts.max_iterations):
        grad = 4.0 * (r[:, :, None] * u).sum(axis=1)
        gnorm = np.linalg.norm(grad, axis=1)
        active = ~frozen & (gnorm > opts.gradient_tolerance * (1.0 + np.abs(cost)))
        if not active.any():
            break
        iterations += 1
        hess = 4.0 * r.sum(axis=1)[:, None, None] * eye + 8.0 * np.matmul(
            u.transpose(0, 2, 1), u
        )
        scale = 1.0 + np.abs(hess).max(axis=(1, 2))
        a = hess + (lam * scale)[:, None, None] * eye
        try:
            step = np.linalg.solve(a, -grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.stack(
                [np.linalg.lstsq(a[i], -grad[i], rcond=None)[0] for i in range(n_restarts)]
            )
        trial = x + step
        _, _, trial_cost = residuals(trial)
        accept = active & (trial_cost < cost)
        improvement = cost - trial_cost
        step_norm = np.linalg.norm(step, axis=1)
        frozen |= accept & (
            (improvement <= 1e-14 * (1.0 + np.abs(cost)))
            | (step_norm <= 1e-12 * (1.0 + np.linalg.norm(x, axis=1)))
        )
        x[accept] = trial[accept]
        lam[accept] = np.maximum(lam[accept] * 0.3, 1e-12)
        rejected = active & ~accept
        lam[rejected] = lam[rejected] * 10.0
        frozen |= rejected & (lam > 1e12)
        if accept.any():
            u, r, cost = residuals(x)
    return x, cost, iterations


def _hessian(x, anchors, delta):
    u = x - anchors
    r = (u**2).sum(axis=1) - delta
    return 4.0 * r.sum() * np.eye(x.shape[0]) + 8.0 * (u.T @ u)


def _newton_polish(x, anchors, delta, cost, opts):
    """Drive the gradient down by pure Newton steps once cost decreases are
    no longer representable; accepted only while the cost does not rise."""
    grad = unfolding_gradient(x, anchors, delta)
    gnorm = np.linalg.norm(grad)
    for _ in range(8):
        if gnorm <= opts.gradient_tolerance * (1.0 + abs(cost)):
            break
        try:
            step = np.linalg.solve(_hessian(x, anchors, delta), -grad)
        except np.linalg.LinAlgError:
            break
        trial = x + step
        trial_cost = unfolding_cost(trial, anchors, delta)
        trial_grad = unfolding_gradient(trial, anchors, delta)
        trial_gnorm = np.linalg.norm(trial_grad)
        # ulp-level cost increases are rounding noise at this resolution
        if trial_cost > cost + 1e-12 * (1.0 + abs(cost)) or trial_gnorm >= gnorm:
            break
        x, cost, grad, gnorm = trial, trial_cost, trial_grad, trial_gnorm
    return x, cost, gnorm


def _starting_points(anchors, opts, rng):
    centroid = anchors.mean(axis=0)
    lo = anchors.min(axis=0)
    hi = anchors.max(axis=0)
    extra = rng.uniform(lo, hi, size=(opts.restarts - 1, anchors.shape[1]))
    return np.vstack([centroid[None, :], extra])


def reference_localize(
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
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    delta = np.asarray(delta, dtype=float).ravel()
    m, q = anchors.shape
    if m == 0:
        raise InputError("cannot localize with zero anchors")
    if delta.shape[0] != m:
        raise InputError(f"delta length {delta.shape[0]} != anchor count {m}")
    if not np.all(np.isfinite(delta)):
        raise InputError("delta entries must be finite")
    well_posed = m >= q + 1
    if not well_posed:
        warnings.warn(
            f"{m} anchors in {q}-D is below the well-posedness threshold {q + 1}",
            IllPosedWarning,
            stacklevel=2,
        )
    rng = np.random.default_rng([opts.seed, column])
    starts = _starting_points(anchors, opts, rng)
    points, costs, iterations = _descend(anchors, delta, starts, opts)
    for i in range(points.shape[0]):
        points[i], costs[i], _ = _newton_polish(
            points[i], anchors, delta, float(costs[i]), opts
        )
    winner = int(np.argmin(costs))  # ties break to the lowest restart index
    x_hat = points[winner]
    cost = float(costs[winner])
    grad_norm = np.linalg.norm(unfolding_gradient(x_hat, anchors, delta))
    converged = grad_norm <= opts.gradient_tolerance * (1.0 + abs(cost))
    return LocalizationResult(
        position=x_hat,
        cost=float(cost),
        iterations=iterations,
        winning_restart=winner,
        converged=bool(converged),
        well_posed=well_posed,
        restart_costs=costs,
    )


def reference_grid(anchors, delta):
    """Brute-force minimum of the unfolding cost: the best point of a grid
    over the anchors' bounding box widened by the largest target distance,
    then of seven finer grids, each around the best point so far.  Returns
    (x, cost)."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    delta = np.asarray(delta, dtype=float).ravel()
    q = anchors.shape[1]
    n = 81 if q <= 2 else 33  # points per axis
    reach = np.sqrt(max(float(delta.max()), 0.0)) + 0.1 * np.ptp(anchors, axis=0).max() + 1e-3
    lo, hi = anchors.min(axis=0) - reach, anchors.max(axis=0) + reach
    best_x, best_cost = None, np.inf
    for _ in range(8):
        axes = [np.linspace(a, b, n) for a, b in zip(lo, hi)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, q)
        for chunk in np.array_split(grid, max(1, grid.shape[0] * anchors.shape[0] // 500_000)):
            r = ((chunk[:, None, :] - anchors) ** 2).sum(axis=2) - delta
            costs = (r**2).sum(axis=1)
            k = int(np.argmin(costs))
            if costs[k] < best_cost:
                best_x, best_cost = chunk[k], float(costs[k])
        cell = (hi - lo) / (n - 1)
        lo, hi = best_x - 2 * cell, best_x + 2 * cell
    return best_x, unfolding_cost(best_x, anchors, delta)


def oracle_bound(anchors, delta) -> float:
    """The highest cost the exact solver may return: the lower of the
    multi-start and grid oracles' costs, plus 1e-9 of it, plus a roundoff
    floor for problems whose minimum is zero."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllPosedWarning)
        descent = reference_localize(anchors, delta).cost
    best = min(descent, reference_grid(anchors, delta)[1])
    return best * (1.0 + 1e-9) + 1e-24 * (1.0 + float((np.asarray(delta) ** 2).sum()))


def reference_fit(psi, d) -> LinearMap:
    """Least squares of d on psi constrained to positive slope.

    The 1-D constrained optimum is the unconstrained slope when positive,
    otherwise the clamp SLOPE_FLOOR with the intercept recomputed at the
    clamped slope.
    """
    psi = np.asarray(psi, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    if psi.shape != d.shape:
        raise InputError(f"length mismatch: {psi.shape} vs {d.shape}")
    if psi.size < 2:
        raise UnderdeterminedFit(f"need at least 2 points, got {psi.size}")
    psi_c = psi - psi.mean()
    var = float(psi_c @ psi_c)
    if var == 0.0:
        if not np.allclose(d, d.mean()):
            warnings.warn(
                "constant proximities with varying distances; slope clamped",
                DegenerateFitWarning,
                stacklevel=2,
            )
        slope = SLOPE_FLOOR
    else:
        slope = float(psi_c @ (d - d.mean())) / var
        if slope <= 0:
            slope = SLOPE_FLOOR
    offset = float(d.mean() - slope * psi.mean())
    return LinearMap(offset, slope)


def reference_preliminary(
    psi: ProximityMatrix, d_y: np.ndarray
) -> EstimatedDistanceMatrix:
    """Per-anchor fits on anchor-to-anchor data, applied to target scores.

    Anchor k's map is fit on the m points (psi^Y_k, d^Y_k), including the
    self pair (psi_kk, 0), then applied to the target entries of slice k.
    """
    m = psi.n_anchors
    d_y = np.asarray(d_y, dtype=float)
    if m < 2:
        raise UnderdeterminedFit(f"need at least 2 anchors, got {m}")
    if d_y.shape != (m, m):
        raise InputError(f"anchor distance block must be {m}x{m}, got {d_y.shape}")
    psi_y = psi.block("Y")
    psi_xy = psi.block("XY")  # target rows, anchor slices
    n = psi_xy.shape[0]
    estimates = np.empty((m, n))
    flagged = []
    for k in range(m):
        try:
            g = reference_fit(psi_y[:, k], d_y[:, k])
        except OrdinalUnlocError:
            flagged.append(k)
            estimates[k] = np.nan
            continue
        estimates[k] = g(psi_xy[:, k])
    if flagged:
        if len(flagged) == m:
            raise UnderdeterminedFit("every anchor fit failed")
        ok = [k for k in range(m) if k not in flagged]
        estimates[flagged] = estimates[ok].mean(axis=0)
    return EstimatedDistanceMatrix(estimates, "preliminary", tuple(flagged))


def reference_recalibrate(
    psi: ProximityMatrix, d_tilde: EstimatedDistanceMatrix
) -> EstimatedDistanceMatrix:
    """Per-target re-fit so each estimate column is affine in the target
    slice's anchor proximities (positive slope), restoring their order."""
    m = psi.n_anchors
    if d_tilde.n_anchors != m or psi.order != m + d_tilde.n_targets:
        raise InputError("proximity and estimate shapes disagree")
    psi_yx = psi.block("YX")  # anchor rows, target slices
    out = np.empty_like(d_tilde.values)
    for j in range(d_tilde.n_targets):
        g = reference_fit(psi_yx[:, j], d_tilde.values[:, j])
        out[:, j] = g(psi_yx[:, j])
    return EstimatedDistanceMatrix(out, "recalibrated", d_tilde.flagged_anchors)
