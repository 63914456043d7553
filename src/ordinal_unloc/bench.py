"""Monte-Carlo benchmark harness and metrics.

Three experiment kinds: "ordinal" (threshold-noise comparisons of true
distances, RMSE/Kendall-tau vs anchors and noise), "rss" (per-link random
path-loss exponents; ordinal pipeline on raw powers vs fixed-calibration
and genie-aided distance inversion) and "toa" (Gaussian time-of-arrival
draws on an enlarged field, swept over the normalized variance c*sigma^2).

Every trial derives an independent RNG stream from
(master seed, experiment id, trial index), so results are deterministic
and independent of worker count.  The grid points that share an anchor
count form a group, and a trial runs each stage on a group's stacked
arrays; the only per-grid-point objects are the ``SignalMatrix`` inputs
of the rss and toa kinds' comparisons:

1. draw: each grid point draws its layout and channel on its own child
   stream, into one (G, m + n, 2) layout stack per group, whose distances
   come from one broadcast;
2. estimate: a group's comparison row sums (each grid point's noise drawn
   on its own stream, no N^3 comparison tensor built), proximities and
   per-anchor and per-target fits are each one stacked call;
3. solve and score: every target column of the trial, of every grid
   point and method, goes to ``unfold.solve_columns`` in one call, which
   solves them in one batch, and each group's position errors, Kendall
   taus and solver flags are computed at once.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .core import ConfigError, InputError, OrdinalUnlocError, point_distances
from .funclearn import estimate_distances_stack
from .ordinal import (
    SignalMatrix,
    _usable_cpus,
    distance_row_sums,
    pair_indices,
    signal_row_sums,
)
from .rank import proximity_scores
from .unfold import SolverOptions, solve_columns

EXPERIMENT_KINDS = ("ordinal", "rss", "toa")
_EXPERIMENT_IDS = {kind: i for i, kind in enumerate(EXPERIMENT_KINDS)}
_DIMENSION = 2  # the simulated fields are planar
# random placements can collide; powers are generated at no less than this
MIN_LINK_DISTANCE = 1e-6
# field sides a trial accepts.  The unfolding cost holds fourth powers of
# the distance estimates; 200-trial probes of every kind at m = 5 and 20
# first warned of overflow at 1e39 (rss) and of underflow at 1e-74 (toa),
# and the ends keep at least nine decades of margin
FIELD_SIDE_RANGE = (1e-60, 1e30)
_METHODS = {
    "ordinal": ("ordinal_unloc",),
    "rss": ("ordinal_unloc", "unloc_fixed_g", "unloc_genie"),
    "toa": ("ordinal_unloc", "unloc"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    anchor_counts: tuple[int, ...] = (5, 10, 15, 20)
    n_targets: int = 1
    field_side: float = 1.0
    noise_grid: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5)
    trials: int = 2000
    seed: int = 0
    exponent_low: float = 2.0
    exponent_high: float = 6.0
    calibration_exponent: float = 4.0
    propagation_speed: float = 1.0
    # accepted but not read, because existing callers, such as perfbench's
    # workloads, pass one
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.anchor_counts or any(m < 2 for m in self.anchor_counts):
            raise ConfigError("anchor_counts must be a non-empty list of counts >= 2")
        if self.n_targets < 1:
            raise ConfigError("n_targets must be >= 1")
        low, high = FIELD_SIDE_RANGE
        if not low <= self.field_side <= high:
            raise ConfigError(f"field_side must be in [{low:g}, {high:g}], got {self.field_side}")
        for name in ("propagation_speed", "calibration_exponent"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        low, high = self.exponent_low, self.exponent_high
        if not (np.isfinite(low) and np.isfinite(high) and 2.0 <= low <= high):
            raise ConfigError(
                f"path-loss exponents need 2 <= exponent_low <= exponent_high, finite; "
                f"got {low}, {high}"
            )
        if self.kind != "rss":
            if len(self.noise_grid) == 0:
                raise ConfigError("noise grid must be non-empty")
            if not all(np.isfinite(v) and v >= 0 for v in self.noise_grid):
                raise ConfigError("noise values must be finite and nonnegative")
            if self.kind == "toa" and any(v <= 0 for v in self.noise_grid):
                raise ConfigError("normalized TOA variances must be positive")
        object.__setattr__(self, "anchor_counts", tuple(int(m) for m in self.anchor_counts))
        object.__setattr__(self, "noise_grid", tuple(float(v) for v in self.noise_grid))

    @property
    def methods(self) -> tuple[str, ...]:
        return _METHODS[self.kind]

    def grid(self) -> tuple[tuple[int, float | None], ...]:
        """(anchor count, noise level) pairs; noise is None for the RSS kind."""
        if self.kind == "rss":
            return tuple((m, None) for m in self.anchor_counts)
        return tuple((m, s) for m in self.anchor_counts for s in self.noise_grid)


@dataclass(frozen=True)
class TrialOutcome:
    """Per-grid-point, per-method mean squared position error, Kendall tau
    of the anchor-to-target distance estimates, and solver-failure flags."""

    sq_err: np.ndarray
    tau: np.ndarray
    flagged: np.ndarray


@dataclass(frozen=True)
class ExperimentResult:
    kind: str
    methods: tuple[str, ...]
    grid: tuple[tuple[int, float | None], ...]
    rmse: np.ndarray
    rmse_se: np.ndarray
    mse: np.ndarray
    mse_se: np.ndarray
    mean_tau: np.ndarray
    tau_se: np.ndarray
    flagged_fraction: np.ndarray
    unreliable: np.ndarray
    trials: int
    seed: int
    config: ExperimentConfig | None = None


def _stacked_tau(u, v):
    """Tau-a of each pair of rows of two (..., L) arrays, broadcast against
    each other.  The full sign-product matrix counts every pair twice; its
    entries are small integers, so the sum is exact in any order and the
    doubled ratio is the same float."""
    length = u.shape[-1]
    du = np.sign(u[..., :, None] - u[..., None, :])
    dv = np.sign(v[..., :, None] - v[..., None, :])
    return (du * dv).sum(axis=(-2, -1)) / (length * (length - 1))


def kendall_tau(u, v) -> float:
    """Tau-a rank correlation: (concordant - discordant) / (L(L-1)/2).

    Tied pairs in either vector contribute zero to the numerator.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise InputError("vectors must have equal length")
    if u.size < 2:
        raise InputError(f"Kendall tau undefined for length {u.size}")
    return float(_stacked_tau(u, v))


class _GroupDraw(NamedTuple):
    """The draws of the G grid points sharing anchor count m: layouts
    (G, m + n, 2), anchors first, their (G, N, N) true distances, the
    arguments of the ordinal pipeline's ``*_row_sums`` call, and the
    baseline methods' (G, m, n) direct distance estimates."""

    points: np.ndarray
    d_full: np.ndarray
    comparisons: tuple
    direct: tuple[np.ndarray, ...]


def _layouts(config, m, rngs):
    """One layout per generator, anchors then targets, and the distances."""
    n = config.n_targets
    points = np.empty((len(rngs), m + n, _DIMENSION))
    for layout, rng in zip(points, rngs):
        layout[:m] = rng.uniform(0, config.field_side, size=(m, _DIMENSION))
        layout[m:] = rng.uniform(0, config.field_side, size=(n, _DIMENSION))
    return points, point_distances(points)


def _symmetric(pairs, n):
    """(G, n, n) symmetric matrices from one value per unordered pair of
    each row of ``pairs`` (in ``pair_indices`` order), zero diagonal."""
    out = np.zeros((len(pairs), n, n))
    iu, ju = pair_indices(n)
    out[:, iu, ju] = pairs
    out[:, ju, iu] = pairs
    return out


def _ordinal_draw(config, m, sigmas, rngs):
    points, d_full = _layouts(config, m, rngs)
    for rng in rngs:
        rng.integers(2**63)  # unused; keeps the comparison noise draws in place
    return _GroupDraw(points, d_full, (d_full, sigmas, rngs), ())


def _rss_draw(config, m, _, rngs):
    """Received powers P_R = P_T alpha d^-G, with a per-link path-loss
    exponent G drawn uniformly on [exponent_low, exponent_high].  Every
    method is invariant to the constant P_T alpha, which the paper takes
    as unknown, so it is 1."""
    points, d_full = _layouts(config, m, rngs)
    size = len(pair_indices(m + config.n_targets)[0])
    exponents = _symmetric(
        [rng.uniform(config.exponent_low, config.exponent_high, size) for rng in rngs],
        m + config.n_targets,
    )
    power = np.maximum(d_full, MIN_LINK_DISTANCE) ** (-exponents)
    # (i) the ordinal pipeline on raw powers; (ii) fixed calibration
    # exponent and (iii) genie-aided per-link exponent inversions
    # d = (P_T alpha / P_R)^(1/G).  They are finite unless the power
    # underflowed (to 0, or below 1 / DBL_MAX).  The fixed-G estimates
    # are d^(G / G_cal), so a small calibration exponent on a large field
    # can overflow their squares, the unfolding deltas
    block = exponents[:, :m, m:]
    with np.errstate(divide="ignore", over="ignore"):
        direct = tuple(
            (1.0 / power[:, :m, m:]) ** (1.0 / exps)
            for exps in (np.full(block.shape, config.calibration_exponent), block)
        )
        if not all(np.isfinite(d).all() for d in direct):
            raise OrdinalUnlocError(
                "received power underflowed, so the direct distance inversions are not finite"
            )
        if not np.isfinite(direct[0] ** 2).all():
            raise OrdinalUnlocError(
                "the squared fixed-calibration distance estimates overflow: calibration "
                f"exponent {config.calibration_exponent!r} is too small for this field side"
            )
    signals = [SignalMatrix(p, increasing_with_distance=False, n_anchors=m) for p in power]
    return _GroupDraw(points, d_full, (signals,), direct)


def _toa_draw(config, m, variances, rngs):
    c = config.propagation_speed
    points, d_full = _layouts(config, m, rngs)
    size = len(pair_indices(m + config.n_targets)[0])
    noise = []
    for rng, variance in zip(rngs, variances):
        rng.integers(2**63, size=2)  # unused; keeps the noise draws in place
        noise.append(rng.normal(0.0, float(np.sqrt(variance / c)), size))
    toa = d_full / c + _symmetric(noise, m + config.n_targets)
    signals = [SignalMatrix(t, increasing_with_distance=True, n_anchors=m) for t in toa]
    return _GroupDraw(points, d_full, (signals,), (c * toa[:, :m, m:],))


_DRAWS = {"ordinal": _ordinal_draw, "rss": _rss_draw, "toa": _toa_draw}


def _estimates(m, psi, draw):
    """Every method's (G, K, m, n) anchor-to-target distance estimates."""
    estimates, _ = estimate_distances_stack(psi, draw.d_full[:, :m, :m], m)
    return np.stack([estimates, *draw.direct], axis=1)


def _score(estimates, draw, solution):
    """Per grid point and method of one group: the mean squared position
    error and mean Kendall tau over the solved target columns, and whether
    any column went unsolved or unconverged.  ``solution`` is the group's
    ``ColumnSolution`` of its (G, K, m, n) ``estimates``."""
    m, solved = estimates.shape[2], solution.solved
    sq = ((solution.positions - draw.points[:, None, m:]) ** 2).sum(axis=-1)
    tau = _stacked_tau(
        np.swapaxes(estimates, -1, -2), np.swapaxes(draw.d_full[:, None, :m, m:], -1, -2)
    )
    sq_err, mean_tau = sq.mean(axis=-1), tau.mean(axis=-1)
    for g, k in np.argwhere(~solved.all(axis=-1)):
        cols = solved[g, k]
        # the mean over the solved columns only, none solved giving NaN
        sq_err[g, k], mean_tau[g, k] = (
            (np.mean(sq[g, k, cols]), np.mean(tau[g, k, cols])) if cols.any() else (np.nan,) * 2
        )
    return sq_err, mean_tau, ~solution.converged.all(axis=-1)


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialOutcome:
    """One Monte-Carlo trial covering every grid point.

    Deterministic given (config.seed, config.kind, trial_index); each grid
    point draws on an independent child stream.  The grid points are drawn
    and estimated per anchor count, then every unfolding problem of the
    trial goes to the solver in one batch, then each group is scored.
    """
    grid = config.grid()
    root = np.random.SeedSequence(
        entropy=config.seed, spawn_key=(_EXPERIMENT_IDS[config.kind], trial_index)
    )
    rngs = [np.random.default_rng(child) for child in root.spawn(len(grid))]
    groups: dict[int, list[int]] = {}
    for g, (m, _) in enumerate(grid):
        groups.setdefault(m, []).append(g)
    draw = _DRAWS[config.kind]
    draws = {
        m: draw(config, m, [grid[g][1] for g in members], [rngs[g] for g in members])
        for m, members in groups.items()
    }
    # every group is drawn and checked (by SignalMatrix, or by the distance
    # row sums) before any group is fitted
    row_sums = distance_row_sums if config.kind == "ordinal" else signal_row_sums
    psi = {m: proximity_scores(row_sums(*draws[m].comparisons)) for m in groups}
    estimates = {m: _estimates(m, psi[m], draws[m]) for m in groups}

    # a target column whose squared estimates are not all finite is left
    # unsolved; for a direct method the trial raises on it instead
    if not all(np.isfinite(d**2).all() for group in draws.values() for d in group.direct):
        raise InputError("delta entries must be finite")
    solutions = solve_columns([(draws[m].points[:, :m], est) for m, est in estimates.items()])

    shape = (len(grid), len(config.methods))
    sq_err, tau, flagged = np.empty(shape), np.empty(shape), np.zeros(shape, dtype=bool)
    for (m, members), solution in zip(groups.items(), solutions):
        sq_err[members], tau[members], flagged[members] = _score(estimates[m], draws[m], solution)
    return TrialOutcome(sq_err, tau, flagged)


def _trial_worker(args):
    config, index = args
    return run_trial(config, index)


def run_benchmark(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Aggregate trials into RMSE curves with standard errors.

    Up to ``threads`` worker processes run the trials, but no more than
    there are trials or CPUs this process may run on.  The reduction runs
    in trial-index order, so the result is identical for any worker count.
    """
    trials = config.trials
    workers = min(threads, trials, _usable_cpus())
    if workers > 1:
        chunk = max(1, trials // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(_trial_worker, ((config, t) for t in range(trials)), chunksize=chunk)
            )
    else:
        outcomes = [run_trial(config, t) for t in range(trials)]

    sq = np.stack([o.sq_err for o in outcomes])  # (trials, grid, methods)
    tau = np.stack([o.tau for o in outcomes])
    flags = np.stack([o.flagged for o in outcomes])

    mse = np.nanmean(sq, axis=0)
    if trials > 1:
        mse_se = np.nanstd(sq, axis=0, ddof=1) / np.sqrt(trials)
        tau_se = np.nanstd(tau, axis=0, ddof=1) / np.sqrt(trials)
    else:
        mse_se = np.zeros_like(mse)
        tau_se = np.zeros_like(mse)
    rmse = np.sqrt(mse)
    rmse_se = np.divide(mse_se, 2.0 * rmse, out=np.zeros_like(mse), where=rmse > 0)
    mean_tau = np.nanmean(tau, axis=0)
    flagged_fraction = flags.mean(axis=0)
    return ExperimentResult(
        kind=config.kind,
        methods=config.methods,
        grid=config.grid(),
        rmse=rmse,
        rmse_se=rmse_se,
        mse=mse,
        mse_se=mse_se,
        mean_tau=mean_tau,
        tau_se=tau_se,
        flagged_fraction=flagged_fraction,
        unreliable=flagged_fraction > 0.1,
        trials=trials,
        seed=config.seed,
        config=config,
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if np.isnan(x):
        return ""
    return repr(x)


CSV_COLUMNS = (
    "m",
    "noise",
    "method",
    "rmse",
    "rmse_se",
    "mean_tau",
    "tau_se",
    "trials",
    "flagged_fraction",
    "unreliable",
)


def result_to_csv(result: ExperimentResult) -> str:
    """One row per (grid point, method); column set is fixed."""
    lines = [",".join(CSV_COLUMNS)]
    for g, (m, noise) in enumerate(result.grid):
        for k, method in enumerate(result.methods):
            lines.append(
                ",".join(
                    [
                        str(m),
                        _fmt(noise),
                        method,
                        _fmt(result.rmse[g, k]),
                        _fmt(result.rmse_se[g, k]),
                        _fmt(result.mean_tau[g, k]),
                        _fmt(result.tau_se[g, k]),
                        str(result.trials),
                        _fmt(result.flagged_fraction[g, k]),
                        str(int(result.unreliable[g, k])),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def result_to_json(result: ExperimentResult) -> str:
    """Full config echo plus per-method curves, for external plotting."""
    payload = {
        "kind": result.kind,
        "seed": result.seed,
        "trials": result.trials,
        "config": asdict(result.config) if result.config is not None else None,
        "grid": [{"m": m, "noise": noise} for m, noise in result.grid],
        "methods": list(result.methods),
        "curves": {
            method: {
                "rmse": result.rmse[:, k].tolist(),
                "rmse_se": result.rmse_se[:, k].tolist(),
                "mse": result.mse[:, k].tolist(),
                "mse_se": result.mse_se[:, k].tolist(),
                "mean_tau": result.mean_tau[:, k].tolist(),
                "tau_se": result.tau_se[:, k].tolist(),
                "flagged_fraction": result.flagged_fraction[:, k].tolist(),
                "unreliable": result.unreliable[:, k].astype(int).tolist(),
            }
            for k, method in enumerate(result.methods)
        },
        # tau is computed between true and estimated anchor-to-target
        # distance vectors; other entry sets would be a different statistic
        "notes": ["tau compares true vs estimated anchor-to-target distances"],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
