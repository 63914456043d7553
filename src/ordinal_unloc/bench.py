"""Monte-Carlo benchmark harness and metrics.

Three experiment kinds: "ordinal" (threshold-noise comparisons of true
distances, RMSE/Kendall-tau vs anchors and noise), "rss" (per-link random
path-loss exponents; ordinal pipeline on raw powers vs fixed-calibration
and genie-aided distance inversion) and "toa" (Gaussian time-of-arrival
draws on an enlarged field, swept over the normalized variance c*sigma^2).

Every trial derives an independent RNG stream from
(master seed, experiment id, trial index), so results are deterministic
and independent of worker count.  A trial runs in three steps:

1. draw: each grid point draws its layout and channel on its own child
   stream;
2. estimate, per anchor count: the grid points that share one form a
   group, whose comparison row sums (each grid point's noise drawn on its
   own stream, no N^3 comparison tensor built), proximities and
   per-anchor and per-target fits are each computed in one stacked call;
3. solve: every unfolding problem of the trial, of every grid point and
   method, goes to the solver in one batch, and each grid point is scored.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .core import ConfigError, DistanceMatrix, InputError, point_distances
from .funclearn import estimate_distances_batch
from .ordinal import (
    ComparisonNoiseModel,
    SignalMatrix,
    distance_row_sums,
    pair_indices,
    signal_row_sums,
)
from .rank import proximity_scores
from .signals import MIN_LINK_DISTANCE, RssModel
from .unfold import SolverOptions, UnfoldingProblem, column_problems, solve_unfolding

EXPERIMENT_KINDS = ("ordinal", "rss", "toa")
_EXPERIMENT_IDS = {kind: i for i, kind in enumerate(EXPERIMENT_KINDS)}
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
    transmit_power: float = 1.0
    hardware_gain: float = 1.0
    propagation_speed: float = 1.0
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.anchor_counts or any(m < 1 for m in self.anchor_counts):
            raise ConfigError("anchor_counts must be a non-empty list of positive counts")
        if self.n_targets < 1:
            raise ConfigError("n_targets must be >= 1")
        if not self.field_side > 0:
            raise ConfigError("field_side must be positive")
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


def kendall_tau(u, v) -> float:
    """Tau-a rank correlation: (concordant - discordant) / (L(L-1)/2).

    Tied pairs in either vector contribute zero to the numerator.  The
    full sign-product matrix counts every pair twice; its entries are small
    integers, so the sum is exact and the doubled ratio is the same float.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise InputError("vectors must have equal length")
    length = u.size
    if length < 2:
        raise InputError(f"Kendall tau undefined for length {length}")
    du = np.sign(u[:, None] - u[None, :])
    dv = np.sign(v[:, None] - v[None, :])
    return float((du * dv).sum() / (length * (length - 1)))


def _symmetric_draws(n, draw, rng):
    """Symmetric matrix with one draw per unordered pair, zero diagonal."""
    out = np.zeros((n, n))
    iu, ju = pair_indices(n)
    vals = draw(rng, iu.size)
    out[iu, ju] = vals
    out[ju, iu] = vals
    return out


class _GridDraw(NamedTuple):
    """One grid point's draws: the layout, its true distances (anchors
    first), the arguments of its entry in a stacked ``*_row_sums`` call of
    the ordinal pipeline, and the direct distance estimates of the
    baseline methods."""

    anchors: np.ndarray
    targets: np.ndarray
    d_full: np.ndarray
    comparisons: tuple
    direct: tuple[np.ndarray, ...]


class _MethodSolves(NamedTuple):
    """One method's unfolding problems at a grid point, with what scoring
    needs: the distance estimates whose columns tau compares, the true
    targets and the true anchor-to-target distances."""

    problems: list[UnfoldingProblem | None]
    estimates: np.ndarray
    targets: np.ndarray
    true_yx: np.ndarray


def _position_error_and_tau(results, d_hat, targets, d_true_yx):
    """Mean squared position error and mean tau over target columns."""
    errs, taus = [], []
    flagged = False
    for j, res in enumerate(results):
        if res is None:
            flagged = True
            continue
        if not res.converged:
            flagged = True
        errs.append(((res.position - targets[j]) ** 2).sum())
        taus.append(kendall_tau(d_hat[:, j], d_true_yx[:, j]))
    if not errs:
        return np.nan, np.nan, True
    return float(np.mean(errs)), float(np.mean(taus)), flagged


def _direct_problems(anchors, d_est):
    """Baseline solves from direct distance estimates, one per target."""
    return [UnfoldingProblem(anchors, d_est[:, j] ** 2) for j in range(d_est.shape[1])]


def _layout(config, m, rng):
    anchors = rng.uniform(0, config.field_side, size=(m, 2))
    targets = rng.uniform(0, config.field_side, size=(config.n_targets, 2))
    return anchors, targets, point_distances(np.vstack([anchors, targets]))


def _ordinal_draw(config, m, sigma, rng):
    anchors, targets, d_full = _layout(config, m, rng)
    rng.integers(2**63)  # unused; keeps the comparison noise draws in place
    comparisons = (DistanceMatrix(d_full, m), ComparisonNoiseModel(sigma), rng)
    return _GridDraw(anchors, targets, d_full, comparisons, ())


def _rss_draw(config, m, rng):
    anchors, targets, d_full = _layout(config, m, rng)
    model = RssModel(
        transmit_power=config.transmit_power,
        hardware_gain=config.hardware_gain,
        exponent_low=config.exponent_low,
        exponent_high=config.exponent_high,
    )
    exponents = _symmetric_draws(
        len(d_full), lambda r, k: r.uniform(config.exponent_low, config.exponent_high, k), rng
    )
    d_safe = np.maximum(d_full, MIN_LINK_DISTANCE)
    power = model.transmit_power * model.hardware_gain * d_safe ** (-exponents)
    # (i) the ordinal pipeline on raw powers; (ii) fixed calibration
    # exponent and (iii) genie-aided per-link exponent inversions
    comparisons = (SignalMatrix(power, increasing_with_distance=False, n_anchors=m),)
    direct = tuple(
        (model.transmit_power * model.hardware_gain / power[:m, m:]) ** (1.0 / exps)
        for exps in (np.full((m, config.n_targets), config.calibration_exponent), exponents[:m, m:])
    )
    return _GridDraw(anchors, targets, d_full, comparisons, direct)


def _toa_draw(config, m, normalized_variance, rng):
    c = config.propagation_speed
    sigma_t = float(np.sqrt(normalized_variance / c))
    anchors, targets, d_full = _layout(config, m, rng)
    rng.integers(2**63, size=2)  # unused; keeps the noise draws in place
    noise = _symmetric_draws(len(d_full), lambda r, k: r.normal(0.0, sigma_t, k), rng)
    toa = d_full / c + noise
    comparisons = (SignalMatrix(toa, increasing_with_distance=True, n_anchors=m),)
    return _GridDraw(anchors, targets, d_full, comparisons, (c * toa[:m, m:],))


def _draw(config, m, noise, rng):
    if config.kind == "ordinal":
        return _ordinal_draw(config, m, noise, rng)
    if config.kind == "rss":
        return _rss_draw(config, m, rng)
    return _toa_draw(config, m, noise, rng)


def _ordinal_estimates(config, draws):
    """The ordinal pipeline's distance estimates at every grid point.  The
    grid points sharing an anchor count form one group, whose comparison
    row sums, proximities and fits are each computed in one stacked call."""
    row_sums = distance_row_sums if config.kind == "ordinal" else signal_row_sums
    groups: dict[int, list[int]] = {}
    for g, (m, _) in enumerate(config.grid()):
        groups.setdefault(m, []).append(g)
    estimates = [None] * len(draws)
    for m, members in groups.items():
        psi = proximity_scores(row_sums(*zip(*(draws[g].comparisons for g in members))))
        d_y = np.stack([draws[g].d_full[:m, :m] for g in members])
        for g, d_hat in zip(members, estimate_distances_batch(psi, d_y, m)):
            estimates[g] = d_hat
    return estimates


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialOutcome:
    """One Monte-Carlo trial covering every grid point.

    Deterministic given (config.seed, config.kind, trial_index); each grid
    point draws on an independent child stream.  The grid points are drawn,
    then estimated together per anchor count, then every unfolding problem
    of the trial goes to the solver in one batch, then they are scored.
    """
    grid = config.grid()
    n_methods = len(config.methods)
    sq_err = np.empty((len(grid), n_methods))
    tau = np.empty((len(grid), n_methods))
    flagged = np.zeros((len(grid), n_methods), dtype=bool)
    root = np.random.SeedSequence(
        entropy=config.seed, spawn_key=(_EXPERIMENT_IDS[config.kind], trial_index)
    )
    draws = [
        _draw(config, m, noise, np.random.default_rng(child))
        for (m, noise), child in zip(grid, root.spawn(len(grid)))
    ]
    solves = []
    for (m, _), draw, d_hat in zip(grid, draws, _ordinal_estimates(config, draws)):
        true_yx = draw.d_full[:m, m:]
        problems = column_problems(draw.anchors, d_hat)
        methods = [_MethodSolves(problems, d_hat.values, draw.targets, true_yx)]
        for d_est in draw.direct:
            problems = _direct_problems(draw.anchors, d_est)
            methods.append(_MethodSolves(problems, d_est, draw.targets, true_yx))
        solves.append(methods)
    problems = [p for methods in solves for method in methods for p in method.problems]
    results = iter(solve_unfolding(problems, config.solver))
    for g, methods in enumerate(solves):
        for k, method in enumerate(methods):
            method_results = [next(results) for _ in method.problems]
            sq_err[g, k], tau[g, k], flagged[g, k] = _position_error_and_tau(
                method_results, method.estimates, method.targets, method.true_yx
            )
    return TrialOutcome(sq_err, tau, flagged)


def _trial_worker(args):
    config, index = args
    return run_trial(config, index)


def run_benchmark(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Aggregate trials into RMSE curves with standard errors.

    The reduction runs in trial-index order, so the result is identical
    for any worker count.
    """
    trials = config.trials
    if threads > 1:
        chunk = max(1, trials // (threads * 4))
        with ProcessPoolExecutor(max_workers=threads) as pool:
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
