"""Reference implementations kept as oracles for the production stages.

``reference_localize`` solves one unfolding problem by local descent: a
damped-Newton descent vectorized over its restarts, then a Newton polish
one restart at a time.  ``reference_grid`` evaluates the cost on nested
grids.  Neither is guaranteed to find the global minimum, but both return
a point and its cost (``unfolding_cost``), so the exact solver's cost must
not be above the smaller of the two (``oracle_bound``).
``reference_preliminary`` and ``reference_recalibrate`` fit one linear map
per column in a Python loop; the column-wise fits must match them byte for
byte.  ``ls_rank`` and ``ls_rank_pinv`` solve one comparison slice,
flattened along the edge list of the complete graph, through its
incidence matrix; the row-sum scores of ``rank`` must match them.
``dense_tensor_from_distances`` and ``dense_tensor_from_signals`` build
the whole N x N x N int8 comparison tensor in single expressions, the
former from the noise of ``dense_stack_noise``, drawn as one array; the
row sums of ``ordinal`` must match the sums of its slices.
``reference_run_trial`` is the Monte-Carlo trial computed one grid point
at a time through that dense tensor, one unfolding problem per target
column (``column_problems``), from draws taken as whole arrays in the
trial's documented order; the stacked ``bench.run_trial`` must match it
byte for byte.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ordinal_unloc import bench, unfold
from ordinal_unloc.core import (
    DistanceMatrix,
    IllPosedWarning,
    InputError,
    OrdinalUnlocError,
    point_distances,
)
from ordinal_unloc.funclearn import (
    SLOPE_FLOOR,
    DegenerateFitWarning,
    EstimatedDistanceMatrix,
    UnderdeterminedFit,
)
from ordinal_unloc.funclearn import estimate_distances
from ordinal_unloc.ordinal import SignalMatrix, SliceCoverageWarning
from ordinal_unloc.unfold import LocalizationResult, SolverOptions, solve_unfolding_arrays


# -- least-squares rank aggregation through the incidence matrix -----------


@dataclass(frozen=True)
class PairEnumeration:
    """Lexicographic list of all unordered pairs (i, j), i < j, 0-based."""

    n_items: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def enumerate_pairs(n: int) -> PairEnumeration:
    if n < 2:
        raise InputError(f"need at least 2 items to enumerate pairs, got {n}")
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return PairEnumeration(n, pairs)


def incidence_matrix(enum: PairEnumeration) -> np.ndarray:
    """M x N edge-node incidence matrix: +1 at i, -1 at j per pair row."""
    b = np.zeros((enum.n_pairs, enum.n_items))
    rows = np.arange(enum.n_pairs)
    i_idx = np.array([p[0] for p in enum.pairs])
    j_idx = np.array([p[1] for p in enum.pairs])
    b[rows, i_idx] = 1.0
    b[rows, j_idx] = -1.0
    return b


def flatten_slice(z_slice: np.ndarray, enum: PairEnumeration) -> np.ndarray:
    """Upper-triangular entries of a slice in enumeration order."""
    z_slice = np.asarray(z_slice)
    if z_slice.shape != (enum.n_items, enum.n_items):
        raise InputError(
            f"slice shape {z_slice.shape} does not match enumeration over {enum.n_items}"
        )
    i_idx = np.array([p[0] for p in enum.pairs])
    j_idx = np.array([p[1] for p in enum.pairs])
    return z_slice[i_idx, j_idx].astype(float)


def ls_rank(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zero-sum score vector minimizing ||B psi - z|| on the complete graph.

    B^T B = N I - 1 1^T for the complete graph, so the pseudoinverse acts
    as 1/N on the zero-sum subspace and the solution is just B^T z / N.
    """
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != z.shape[0]:
        raise InputError(f"incidence rows {b.shape[0]} != comparison length {z.shape[0]}")
    return b.T @ z / b.shape[1]


def ls_rank_pinv(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """General-graph route via the Laplacian pseudoinverse, centered to
    zero sum.  Accuracy on incomplete graphs is uncharacterized."""
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    psi = np.linalg.pinv(b.T @ b) @ (b.T @ z)
    return psi - psi.mean()


# -- the dense N^3 comparison tensor ----------------------------------------


def dense_stack_noise(rng, sigmas, n):
    """The threshold noise of a stack of G matrices of order n, as
    (G, n, n(n-1)/2) pair draws: one (G n, n(n-1)/2) standard normal draw
    when some sigma is positive, in matrix, slice and pair order, with
    each matrix's rows scaled by its sigma; zeros, drawing nothing, when
    every sigma is 0."""
    sigmas = np.asarray(sigmas, dtype=float)
    shape = (len(sigmas), n, n * (n - 1) // 2)
    if not (sigmas > 0).any():
        return np.zeros(shape)
    draws = rng.standard_normal((shape[0] * n, shape[2])).reshape(shape)
    return draws * sigmas[:, None, None]


def dense_comparisons(D, draws):
    """The int8 comparisons sgn(d_ik - d_jk + xi_kij) of every slice k of
    one matrix, with xi_kij = draws[k, p] for the p-th pair (i < j) and
    negated for the mirrored pair."""
    n = D.order
    xi = np.zeros((n, n, n))
    iu, ju = np.triu_indices(n, k=1)
    xi[:, iu, ju] = draws
    xi[:, ju, iu] = -draws
    dk = D.values.T
    return np.array(np.sign(dk[:, :, None] - dk[:, None, :] + xi), dtype=np.int8)


def dense_tensor_from_distances(D, noise, rng):
    """The comparisons of one matrix under threshold noise, with the whole
    float64 noise tensor drawn at once."""
    (draws,) = dense_stack_noise(rng, [noise.sigma], D.order)
    return dense_comparisons(D, draws)


def dense_tensor_from_signals(S):
    """The int8 comparisons of oriented proxies in every slice, 0 where
    either link is missing; warns for every slice that misses more than
    half of the comparisons between the other sensors."""
    p = S.values if S.increasing_with_distance else -S.values
    pk = p.T
    missk = S.missing.T
    z = np.sign(pk[:, :, None] - pk[:, None, :])
    unusable = missk[:, :, None] | missk[:, None, :]
    z[unusable] = 0
    n = S.order
    if n > 2:
        # pairs (i, j) with i != j, neither of them the reference k
        eye = np.eye(n, dtype=bool)
        counted = ~(eye[None] | eye[:, :, None] | eye[:, None, :])
        missing_frac = (unusable & counted).sum(axis=(1, 2)) / ((n - 1) * (n - 2))
        for k in np.nonzero(missing_frac > 0.5)[0]:
            warnings.warn(
                f"slice {k}: {missing_frac[k]:.0%} of comparisons missing; "
                "localization quality degrades",
                SliceCoverageWarning,
            )
    return np.array(z, dtype=np.int8)


# -- the unfolding cost and multi-start and grid solvers -------------------


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


_INITIAL_DAMPING = 1e-3


def _descend(anchors, delta, starts):
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
    for _ in range(unfold._MAX_ITERATIONS):
        grad = 4.0 * (r[:, :, None] * u).sum(axis=1)
        gnorm = np.linalg.norm(grad, axis=1)
        active = ~frozen & (gnorm > unfold._GRADIENT_TOLERANCE * (1.0 + np.abs(cost)))
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


def _newton_polish(x, anchors, delta, cost):
    """Drive the gradient down by pure Newton steps once cost decreases are
    no longer representable; accepted only while the cost does not rise."""
    grad = unfolding_gradient(x, anchors, delta)
    gnorm = np.linalg.norm(grad)
    for _ in range(8):
        if gnorm <= unfold._GRADIENT_TOLERANCE * (1.0 + abs(cost)):
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
    points, costs, iterations = _descend(anchors, delta, starts)
    for i in range(points.shape[0]):
        points[i], costs[i], _ = _newton_polish(points[i], anchors, delta, float(costs[i]))
    winner = int(np.argmin(costs))  # ties break to the lowest restart index
    x_hat = points[winner]
    cost = float(costs[winner])
    grad_norm = np.linalg.norm(unfolding_gradient(x_hat, anchors, delta))
    converged = grad_norm <= unfold._GRADIENT_TOLERANCE * (1.0 + abs(cost))
    return LocalizationResult(
        position=x_hat,
        cost=float(cost),
        iterations=iterations,
        winning_restart=winner,
        converged=bool(converged),
        well_posed=well_posed,
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


def oracle_bound(anchors, delta, opts: SolverOptions | None = None) -> float:
    """The highest cost the exact solver may return: the lower of the
    multi-start (run with ``opts``) and grid oracles' costs, plus 1e-9 of
    it, plus a roundoff floor for problems whose minimum is zero."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllPosedWarning)
        descent = reference_localize(anchors, delta, opts).cost
    best = min(descent, reference_grid(anchors, delta)[1])
    return best * (1.0 + 1e-9) + 1e-24 * (1.0 + float((np.asarray(delta) ** 2).sum()))


def reference_fit(psi, d) -> tuple[float, float]:
    """Least squares of d on psi constrained to positive slope, as
    (offset, slope).

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
    if not slope > 0:
        raise InputError(f"slope must be positive, got {slope}")
    return float(d.mean() - slope * psi.mean()), slope


def reference_preliminary(psi: np.ndarray, d_y: np.ndarray) -> EstimatedDistanceMatrix:
    """Per-anchor fits on anchor-to-anchor data, applied to target scores.

    ``psi`` is an (N, N) proximity matrix whose anchor count m is that of
    the (m, m) ``d_y``.  Anchor k's map is fit on the m points (psi^Y_k,
    d^Y_k), including the self pair (psi_kk, 0), then applied to the
    target entries of slice k.
    """
    d_y = np.asarray(d_y, dtype=float)
    m = len(d_y)
    if m < 2:
        raise UnderdeterminedFit(f"need at least 2 anchors, got {m}")
    if d_y.shape != (m, m):
        raise InputError(f"anchor distance block must be {m}x{m}, got {d_y.shape}")
    psi_y = psi[:m, :m]
    psi_xy = psi[m:, :m]  # target rows, anchor slices
    n = psi_xy.shape[0]
    estimates = np.empty((m, n))
    flagged = []
    for k in range(m):
        try:
            offset, slope = reference_fit(psi_y[:, k], d_y[:, k])
        except OrdinalUnlocError:
            flagged.append(k)
            estimates[k] = np.nan
            continue
        estimates[k] = offset + slope * psi_xy[:, k]
    if flagged:
        if len(flagged) == m:
            raise UnderdeterminedFit("every anchor fit failed")
        ok = [k for k in range(m) if k not in flagged]
        estimates[flagged] = estimates[ok].mean(axis=0)
    return EstimatedDistanceMatrix(estimates, tuple(flagged))


def reference_recalibrate(
    psi: np.ndarray, d_tilde: EstimatedDistanceMatrix
) -> EstimatedDistanceMatrix:
    """Per-target re-fit so each estimate column is affine in the target
    slice's anchor proximities (positive slope), restoring their order."""
    m = d_tilde.n_anchors
    if psi.shape != (m + d_tilde.n_targets,) * 2:
        raise InputError("proximity and estimate shapes disagree")
    psi_yx = psi[:m, m:]  # anchor rows, target slices
    out = np.empty_like(d_tilde.values)
    for j in range(d_tilde.n_targets):
        offset, slope = reference_fit(psi_yx[:, j], d_tilde.values[:, j])
        out[:, j] = offset + slope * psi_yx[:, j]
    return EstimatedDistanceMatrix(out, d_tilde.flagged_anchors)


# -- the Monte-Carlo trial, one grid point at a time through the tensor ----


def _estimate_from_tensor(z, anchors):
    """Distance estimates from a dense tensor: slice k's scores are its row
    sums divided by N."""
    return estimate_distances(z.sum(axis=2).T / len(z), point_distances(anchors))


def _symmetric(n, vals):
    out = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    out[iu, ju] = vals
    out[ju, iu] = vals
    return out


def _problem(anchors, delta):
    """One unfolding problem as (anchors, delta), checked and warned about
    as ``unfold.unloc_localize`` checks one."""
    if not np.all(np.isfinite(delta)):
        raise InputError("delta entries must be finite")
    m, q = anchors.shape
    if m < q + 1:
        warnings.warn(
            f"{m} anchors in {q}-D is below the well-posedness threshold {q + 1}",
            IllPosedWarning,
            stacklevel=3,
        )
    return anchors, delta


def column_problems(anchors, d_hat: EstimatedDistanceMatrix) -> list[tuple | None]:
    """One (anchors, delta) problem per target column of an estimated
    distance matrix.

    Distance entries are squared to form delta; negative estimates become
    positive under squaring.  A column that fails validation (its squared
    estimates are not all finite) yields None.
    """
    problems: list[tuple | None] = []
    for j in range(d_hat.n_targets):
        try:
            problems.append(_problem(anchors, d_hat.values[:, j] ** 2))
        except InputError:
            problems.append(None)
    return problems


def _direct_problems(anchors, d_est):
    return [_problem(anchors, d_est[:, j] ** 2) for j in range(d_est.shape[1])]


def _solve(problems):
    """(position, converged) per problem, all problems solved in one
    ``solve_unfolding_arrays`` batch; None problems give None."""
    batch = [p for p in problems if p is not None]
    if not batch:
        return [None] * len(problems)
    positions, _, _, converged = solve_unfolding_arrays(
        np.concatenate([anchors for anchors, _ in batch]),
        np.concatenate([delta for _, delta in batch]),
        [len(anchors) for anchors, _ in batch],
    )
    solved = iter(zip(positions, converged))
    return [None if p is None else next(solved) for p in problems]


def _ordinal_grid_point(config, anchors, targets, draws):
    m = len(anchors)
    d_full = point_distances(np.vstack([anchors, targets]))
    z = dense_comparisons(DistanceMatrix(d_full, m), draws)
    d_hat = _estimate_from_tensor(z, anchors)
    return [(column_problems(anchors, d_hat), d_hat.values, targets, d_full[:m, m:])]


def _rss_grid_point(config, anchors, targets, exponent_pairs):
    m, n = len(anchors), len(targets)
    d_full = point_distances(np.vstack([anchors, targets]))
    d_true_yx = d_full[:m, m:]
    exponents = _symmetric(m + n, exponent_pairs)
    power = np.maximum(d_full, 1e-6) ** (-exponents)
    sig = SignalMatrix(power, increasing_with_distance=False, n_anchors=m)
    d_hat = _estimate_from_tensor(dense_tensor_from_signals(sig), anchors)
    methods = [(column_problems(anchors, d_hat), d_hat.values, targets, d_true_yx)]
    for exps in (np.full((m, n), config.calibration_exponent), exponents[:m, m:]):
        with np.errstate(divide="ignore", over="ignore"):
            d_est = (1.0 / power[:m, m:]) ** (1.0 / exps)
        if not np.isfinite(d_est).all():
            raise OrdinalUnlocError(
                "received power underflowed, so the direct distance inversions are not finite"
            )
        methods.append((_direct_problems(anchors, d_est), d_est, targets, d_true_yx))
    return methods


def _toa_grid_point(config, anchors, targets, noise_pairs):
    m, n = len(anchors), len(targets)
    c = config.propagation_speed
    d_full = point_distances(np.vstack([anchors, targets]))
    d_true_yx = d_full[:m, m:]
    toa = d_full / c + _symmetric(m + n, noise_pairs)
    sig = SignalMatrix(toa, increasing_with_distance=True, n_anchors=m)
    d_hat = _estimate_from_tensor(dense_tensor_from_signals(sig), anchors)
    d_est = c * toa[:m, m:]
    return [
        (column_problems(anchors, d_hat), d_hat.values, targets, d_true_yx),
        (_direct_problems(anchors, d_est), d_est, targets, d_true_yx),
    ]


_GRID_POINTS = {"ordinal": _ordinal_grid_point, "rss": _rss_grid_point, "toa": _toa_grid_point}


def _trial_draws(config, grid, rng):
    """Per grid point: its anchors, its targets and the pair draws of its
    channel (rss exponents or toa noise) or of its ordinal threshold
    noise, taken from the trial's generator in the documented order."""
    groups = {}
    for g, (m, _) in enumerate(grid):
        groups.setdefault(m, []).append(g)
    out = {}
    for m, members in groups.items():
        count, pairs = len(members), (m + config.n_targets) * (m + config.n_targets - 1) // 2
        layouts = rng.uniform(0, config.field_side, size=(count, m + config.n_targets, 2))
        if config.kind == "rss":
            channels = rng.uniform(config.exponent_low, config.exponent_high, (count, pairs))
        elif config.kind == "toa":
            variances = np.array([grid[g][1] for g in members])
            scale = np.sqrt(variances / config.propagation_speed)
            channels = rng.standard_normal((count, pairs)) * scale[:, None]
        else:
            channels = [None] * count
        for g, layout, channel in zip(members, layouts, channels):
            out[g] = [layout[:m], layout[m:], channel]
    if config.kind == "ordinal":
        # once every group is drawn, each group's noise in grid order
        for m, members in groups.items():
            sigmas = [grid[g][1] for g in members]
            noise = dense_stack_noise(rng, sigmas, m + config.n_targets)
            for g, draws in zip(members, noise):
                out[g][2] = draws
    return [out[g] for g in range(len(grid))]


def kendall_tau(u, v):
    """Tau-a of two vectors: (concordant - discordant) / (L(L-1)/2)."""
    du = np.sign(u[:, None] - u[None, :])
    dv = np.sign(v[:, None] - v[None, :])
    return float((du * dv).sum() / (len(u) * (len(u) - 1)))


def _position_error_and_tau(results, d_hat, targets, d_true_yx):
    """Mean squared position error and mean tau over the solved target
    columns of one grid point and method, and whether any column was
    unsolved or unconverged; NaNs when none was solved."""
    errs, taus = [], []
    flagged = False
    for j, res in enumerate(results):
        if res is None:
            flagged = True
            continue
        position, converged = res
        if not converged:
            flagged = True
        errs.append(((position - targets[j]) ** 2).sum())
        taus.append(kendall_tau(d_hat[:, j], d_true_yx[:, j]))
    if not errs:
        return np.nan, np.nan, True
    return float(np.mean(errs)), float(np.mean(taus)), flagged


def reference_run_trial(config, trial_index) -> bench.TrialOutcome:
    """``bench.run_trial`` as it was computed one grid point at a time.  The
    trial's one generator draws, for each anchor count in grid order, the
    layouts of its grid points as one (G, m + n, 2) uniform array, then
    their rss exponents or toa noise as one (G, P) array; once every group
    is drawn, each ordinal group's threshold noise is one array
    (``dense_stack_noise``).  Each grid point then builds its comparison
    tensor, aggregates it and estimates its distances alone; the trial's
    problems are solved in one batch and each grid point and method is
    scored from its list of results."""
    grid = config.grid()
    shape = (len(grid), len(config.methods))
    sq_err, tau, flagged = np.empty(shape), np.empty(shape), np.zeros(shape, dtype=bool)
    rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=config.seed, spawn_key=(bench._EXPERIMENT_IDS[config.kind], trial_index)
        )
    )
    grid_point = _GRID_POINTS[config.kind]
    solves = [grid_point(config, *drawn) for drawn in _trial_draws(config, grid, rng)]
    problems = [p for methods in solves for method in methods for p in method[0]]
    results = iter(_solve(problems))
    for g, methods in enumerate(solves):
        for k, (method_problems, estimates, targets, true_yx) in enumerate(methods):
            method_results = [next(results) for _ in method_problems]
            sq_err[g, k], tau[g, k], flagged[g, k] = _position_error_and_tau(
                method_results, estimates, targets, true_yx
            )
    return bench.TrialOutcome(sq_err, tau, flagged)
