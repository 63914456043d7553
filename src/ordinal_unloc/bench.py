"""Monte-Carlo benchmark harness and metrics.

Three experiment kinds: "ordinal" (threshold-noise comparisons of true
distances, RMSE/Kendall-tau vs anchors and noise), "rss" (per-link random
path-loss exponents; ordinal pipeline on raw powers vs fixed-calibration
and genie-aided distance inversion) and "toa" (Gaussian time-of-arrival
draws on an enlarged field, swept over the normalized variance c*sigma^2).

Every trial derives an independent RNG stream from
(master seed, experiment id, trial index), so results are deterministic
and independent of worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .core import ConfigError, DistanceMatrix, InputError, point_distances
from .ordinal import ComparisonNoiseModel, SignalMatrix, tensor_from_distances, tensor_from_signals
from .pipeline import estimate_from_tensor
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
    iu, ju = np.triu_indices(n, k=1)
    vals = draw(rng, iu.size)
    out[iu, ju] = vals
    out[ju, iu] = vals
    return out


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


def _ordinal_grid_point(config, m, sigma, rng):
    n = config.n_targets
    side = config.field_side
    anchors = rng.uniform(0, side, size=(m, 2))
    targets = rng.uniform(0, side, size=(n, 2))
    rng.integers(2**63)  # unused; keeps the later draws of the stream in place
    points = np.vstack([anchors, targets])
    d_full = point_distances(points)
    tensor = tensor_from_distances(DistanceMatrix(d_full, m), ComparisonNoiseModel(sigma), rng)
    d_hat = estimate_from_tensor(tensor, anchors)
    problems = column_problems(anchors, d_hat)
    return [_MethodSolves(problems, d_hat.values, targets, d_full[:m, m:])]


def _rss_grid_point(config, m, rng):
    n = config.n_targets
    side = config.field_side
    anchors = rng.uniform(0, side, size=(m, 2))
    targets = rng.uniform(0, side, size=(n, 2))
    model = RssModel(
        transmit_power=config.transmit_power,
        hardware_gain=config.hardware_gain,
        exponent_low=config.exponent_low,
        exponent_high=config.exponent_high,
    )
    points = np.vstack([anchors, targets])
    d_full = point_distances(points)
    d_true_yx = d_full[:m, m:]
    n_sensors = m + n
    exponents = _symmetric_draws(
        n_sensors, lambda r, k: r.uniform(config.exponent_low, config.exponent_high, k), rng
    )
    d_safe = np.maximum(d_full, MIN_LINK_DISTANCE)
    power = model.transmit_power * model.hardware_gain * d_safe ** (-exponents)

    # (i) ordinal pipeline directly on raw powers
    sig = SignalMatrix(power, increasing_with_distance=False, n_anchors=m)
    d_hat = estimate_from_tensor(tensor_from_signals(sig), anchors)
    methods = [_MethodSolves(column_problems(anchors, d_hat), d_hat.values, targets, d_true_yx)]

    # (ii) fixed calibration exponent, (iii) genie-aided per-link exponent
    for exps in (np.full((m, n), config.calibration_exponent), exponents[:m, m:]):
        d_est = (model.transmit_power * model.hardware_gain / power[:m, m:]) ** (1.0 / exps)
        methods.append(_MethodSolves(_direct_problems(anchors, d_est), d_est, targets, d_true_yx))
    return methods


def _toa_grid_point(config, m, normalized_variance, rng):
    n = config.n_targets
    side = config.field_side
    c = config.propagation_speed
    sigma_t = float(np.sqrt(normalized_variance / c))
    anchors = rng.uniform(0, side, size=(m, 2))
    targets = rng.uniform(0, side, size=(n, 2))
    points = np.vstack([anchors, targets])
    d_full = point_distances(points)
    d_true_yx = d_full[:m, m:]
    n_sensors = m + n
    rng.integers(2**63, size=2)  # unused; keeps the noise draws in place
    noise = _symmetric_draws(n_sensors, lambda r, k: r.normal(0.0, sigma_t, k), rng)
    toa = d_full / c + noise

    sig = SignalMatrix(toa, increasing_with_distance=True, n_anchors=m)
    d_hat = estimate_from_tensor(tensor_from_signals(sig), anchors)
    d_est = c * toa[:m, m:]
    return [
        _MethodSolves(column_problems(anchors, d_hat), d_hat.values, targets, d_true_yx),
        _MethodSolves(_direct_problems(anchors, d_est), d_est, targets, d_true_yx),
    ]


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialOutcome:
    """One Monte-Carlo trial covering every grid point.

    Deterministic given (config.seed, config.kind, trial_index); each grid
    point consumes an independent child stream.  The grid points are drawn
    and estimated in grid order, then every unfolding problem of the trial
    goes to the solver in one batch, then the grid points are scored.
    """
    grid = config.grid()
    n_methods = len(config.methods)
    sq_err = np.empty((len(grid), n_methods))
    tau = np.empty((len(grid), n_methods))
    flagged = np.zeros((len(grid), n_methods), dtype=bool)
    root = np.random.SeedSequence(
        entropy=config.seed, spawn_key=(_EXPERIMENT_IDS[config.kind], trial_index)
    )
    children = root.spawn(len(grid))
    solves = []
    for (m, noise), child in zip(grid, children):
        rng = np.random.default_rng(child)
        if config.kind == "ordinal":
            solves.append(_ordinal_grid_point(config, m, noise, rng))
        elif config.kind == "rss":
            solves.append(_rss_grid_point(config, m, rng))
        else:
            solves.append(_toa_grid_point(config, m, noise, rng))
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


def rss_comparison_suite(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Fig.-5-style comparison: ordinal on raw powers vs fixed-calibration
    and genie-aided inversion, all three on identical channel draws."""
    if config.kind != "rss":
        raise ConfigError(f"expected an rss config, got kind {config.kind!r}")
    return run_benchmark(config, threads)


def toa_comparison_suite(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Fig.-6-style comparison of ordinal vs direct TOA inversion over the
    normalized-variance grid, on identical TOA draws."""
    if config.kind != "toa":
        raise ConfigError(f"expected a toa config, got kind {config.kind!r}")
    return run_benchmark(config, threads)


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
