"""Monotone linear maps from proximities to distances.

Anchor-to-anchor ground truth calibrates one map per anchor; preliminary
anchor-to-target distance estimates are then recalibrated per target so
that the final estimates are exactly affine (positive slope) in the
target-slice proximities and therefore preserve their ordering.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import InputError, OrdinalUnlocError, ProximityMatrix, _frozen

SLOPE_FLOOR = 1e-9  # clamp value when the unconstrained slope is nonpositive


class UnderdeterminedFit(OrdinalUnlocError):
    """Fewer than two points supplied to a linear fit."""


class DegenerateFitWarning(UserWarning):
    """Constant proximities cannot explain varying distances."""


@dataclass(frozen=True)
class LinearMap:
    """Affine map psi -> offset + slope * psi with slope > 0."""

    offset: float
    slope: float

    def __post_init__(self):
        if not self.slope > 0:
            raise InputError(f"slope must be positive, got {self.slope}")

    def __call__(self, psi):
        return self.offset + self.slope * np.asarray(psi, dtype=float)


@dataclass(frozen=True)
class EstimatedDistanceMatrix:
    """m x n anchor-to-target distance estimates (YX orientation).

    ``stage`` is "preliminary" after the per-anchor maps and
    "recalibrated" after the per-target re-fit.  Negative entries are
    possible and deliberately preserved; squaring happens in the solver.
    """

    values: np.ndarray
    stage: str
    flagged_anchors: tuple[int, ...] = ()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise InputError(f"estimate matrix must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InputError("estimated distances must be finite")
        if self.stage not in ("preliminary", "recalibrated"):
            raise InputError(f"unknown stage {self.stage!r}")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def n_anchors(self) -> int:
        return self.values.shape[0]

    @property
    def n_targets(self) -> int:
        return self.values.shape[1]

    @property
    def negative_count(self) -> int:
        return int((self.values < 0).sum())


def _fit_columns(psi, d):
    """Least squares of each column of d on the same column of psi,
    constrained to positive slope; psi and d are (points, columns).

    The 1-D constrained optimum is the unconstrained slope when positive,
    otherwise the clamp SLOPE_FLOOR with the intercept recomputed at the
    clamped slope.  Returns (offsets, slopes); a column whose slope is not
    a number keeps it, and callers treat it as a failed fit.  Means are
    taken over contiguous rows of the transposes and products are BLAS dot
    products, so each column gets the same bytes as a fit of it alone.
    """
    psi_t = np.ascontiguousarray(psi.T)
    d_t = np.ascontiguousarray(d.T)
    psi_mean = psi_t.mean(axis=1)
    d_mean = d_t.mean(axis=1)
    psi_c = psi_t - psi_mean[:, None]
    var = np.matmul(psi_c[:, None, :], psi_c[:, :, None])[:, 0, 0]
    cov = np.matmul(psi_c[:, None, :], (d_t - d_mean[:, None])[:, :, None])[:, 0, 0]
    degenerate = var == 0.0
    for k in np.flatnonzero(degenerate):
        if not np.allclose(d_t[k], d_mean[k]):
            warnings.warn(
                "constant proximities with varying distances; slope clamped",
                DegenerateFitWarning,
                stacklevel=3,
            )
    slope = np.divide(cov, var, out=np.full_like(var, SLOPE_FLOOR), where=~degenerate)
    slope[slope <= 0] = SLOPE_FLOOR
    return d_mean - slope * psi_mean, slope


def fit_linear_map(psi, d) -> LinearMap:
    """Least squares of d on psi constrained to positive slope."""
    psi = np.asarray(psi, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    if psi.shape != d.shape:
        raise InputError(f"length mismatch: {psi.shape} vs {d.shape}")
    if psi.size < 2:
        raise UnderdeterminedFit(f"need at least 2 points, got {psi.size}")
    (offset,), (slope,) = _fit_columns(psi[:, None], d[:, None])
    return LinearMap(float(offset), float(slope))


def preliminary_distances(psi: ProximityMatrix, d_y: np.ndarray) -> EstimatedDistanceMatrix:
    """Per-anchor fits on anchor-to-anchor data, applied to target scores.

    Anchor k's map is fit on the m points (psi^Y_k, d^Y_k), including the
    self pair (psi_kk, 0), then applied to the target entries of slice k.
    An anchor whose fit fails (its slope is not a number) is flagged and
    gets the mean of the other anchors' estimates.
    """
    m = psi.n_anchors
    d_y = np.asarray(d_y, dtype=float)
    if m < 2:
        raise UnderdeterminedFit(f"need at least 2 anchors, got {m}")
    if d_y.shape != (m, m):
        raise InputError(f"anchor distance block must be {m}x{m}, got {d_y.shape}")
    offset, slope = _fit_columns(psi.block("Y"), d_y)
    psi_xy = psi.block("XY")  # target rows, anchor slices
    estimates = offset[:, None] + slope[:, None] * psi_xy.T
    failed = ~(slope > 0)
    flagged = tuple(int(k) for k in np.flatnonzero(failed))
    if flagged:
        if len(flagged) == m:
            raise UnderdeterminedFit("every anchor fit failed")
        estimates[failed] = estimates[~failed].mean(axis=0)
    return EstimatedDistanceMatrix(estimates, "preliminary", flagged)


def recalibrate(psi: ProximityMatrix, d_tilde: EstimatedDistanceMatrix) -> EstimatedDistanceMatrix:
    """Per-target re-fit so each estimate column is affine in the target
    slice's anchor proximities (positive slope), restoring their order."""
    m = psi.n_anchors
    if d_tilde.n_anchors != m or psi.order != m + d_tilde.n_targets:
        raise InputError("proximity and estimate shapes disagree")
    if m < 2 and d_tilde.n_targets:
        raise UnderdeterminedFit(f"need at least 2 points, got {m}")
    psi_yx = psi.block("YX")  # anchor rows, target slices
    offset, slope = _fit_columns(psi_yx, d_tilde.values)
    failed = np.flatnonzero(~(slope > 0))
    if failed.size:
        raise InputError(f"slope must be positive, got {slope[failed[0]]}")
    out = offset + slope * psi_yx
    return EstimatedDistanceMatrix(out, "recalibrated", d_tilde.flagged_anchors)


def estimate_distances(psi: ProximityMatrix, d_y: np.ndarray) -> EstimatedDistanceMatrix:
    """Both stages end to end: per-anchor fits, then per-target recalibration."""
    return recalibrate(psi, preliminary_distances(psi, d_y))
