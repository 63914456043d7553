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

from .core import InputError, OrdinalUnlocError, _frozen

SLOPE_FLOOR = 1e-9  # clamp value when the unconstrained slope is nonpositive


class UnderdeterminedFit(OrdinalUnlocError):
    """Fewer than two points supplied to a linear fit."""


class DegenerateFitWarning(UserWarning):
    """Constant proximities cannot explain varying distances."""


@dataclass(frozen=True)
class EstimatedDistanceMatrix:
    """m x n recalibrated anchor-to-target distance estimates (YX
    orientation).  Negative entries are possible and deliberately
    preserved; squaring happens in the solver."""

    values: np.ndarray
    flagged_anchors: tuple[int, ...] = ()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise InputError(f"estimate matrix must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InputError("estimated distances must be finite")
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


def _fit_rows(psi, d, stacklevel=4):
    """Least squares of each row of d on the same row of psi, constrained
    to positive slope; psi and d are (fits, points).

    The 1-D constrained optimum is the unconstrained slope when positive,
    otherwise the clamp SLOPE_FLOOR with the intercept recomputed at the
    clamped slope.  Returns (offsets, slopes); a row whose slope is not a
    number keeps it, and callers treat it as a failed fit.  Means are sums
    over contiguous rows and products are BLAS dot products, so each row
    gets the same bytes as a fit of it alone, in any stack of fits.
    ``stacklevel`` points a DegenerateFitWarning at the public caller.
    """
    psi = np.ascontiguousarray(psi)
    d = np.ascontiguousarray(d)
    count = psi.shape[1]
    psi_mean = np.add.reduce(psi, axis=1) / count
    d_mean = np.add.reduce(d, axis=1) / count
    psi_c = psi - psi_mean[:, None]
    var = np.matmul(psi_c[:, None, :], psi_c[:, :, None])[:, 0, 0]
    cov = np.matmul(psi_c[:, None, :], (d - d_mean[:, None])[:, :, None])[:, 0, 0]
    degenerate = var == 0.0
    for k in np.flatnonzero(degenerate):
        if not np.allclose(d[k], d_mean[k]):
            warnings.warn(
                "constant proximities with varying distances; slope clamped",
                DegenerateFitWarning,
                stacklevel=stacklevel,
            )
    slope = np.divide(cov, var, out=np.full_like(var, SLOPE_FLOOR), where=~degenerate)
    slope[slope <= 0] = SLOPE_FLOOR
    return d_mean - slope * psi_mean, slope


def fit_linear_map(psi, d) -> tuple[float, float]:
    """Least squares of d on psi constrained to positive slope: the affine
    map psi -> offset + slope * psi, as (offset, slope)."""
    psi = np.asarray(psi, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    if psi.shape != d.shape:
        raise InputError(f"length mismatch: {psi.shape} vs {d.shape}")
    if psi.size < 2:
        raise UnderdeterminedFit(f"need at least 2 points, got {psi.size}")
    (offset,), (slope,) = _fit_rows(psi[None], d[None], stacklevel=3)
    if not slope > 0:
        raise InputError(f"slope must be positive, got {slope}")
    return float(offset), float(slope)


# The stacked stages below take G proximity matrices of one shape as a
# (G, N, N) array and fit one map per (matrix, slice): psi[g, :m, k] is
# anchor slice k's calibration data, psi[g, m + j, k] the target scores
# it maps, and psi[g, :m, m + j] target slice j's anchor scores.


def _preliminary(psi, d_y, m):
    """Per-anchor maps applied to the target scores: (G, m, n) estimates
    and the (G, m) mask of failed fits, whose rows hold the mean of the
    other anchors' estimates."""
    g = len(psi)
    offset, slope = _fit_rows(
        psi[:, :m, :m].transpose(0, 2, 1).reshape(g * m, m),
        d_y.transpose(0, 2, 1).reshape(g * m, m),
    )
    offset, slope = offset.reshape(g, m, 1), slope.reshape(g, m, 1)
    estimates = offset + slope * psi[:, m:, :m].transpose(0, 2, 1)
    failed = ~(slope[:, :, 0] > 0)
    for k in np.flatnonzero(failed.any(axis=1)):
        if failed[k].all():
            raise UnderdeterminedFit("every anchor fit failed")
        estimates[k, failed[k]] = estimates[k, ~failed[k]].mean(axis=0)
    return estimates, failed


def _recalibrate(psi, d_tilde, m):
    """Per-target re-fits of (G, m, n) estimates on the target slices."""
    g, _, n = d_tilde.shape
    offset, slope = _fit_rows(
        psi[:, :m, m:].transpose(0, 2, 1).reshape(g * n, m),
        d_tilde.transpose(0, 2, 1).reshape(g * n, m),
    )
    failed = np.flatnonzero(~(slope > 0))
    if failed.size:
        raise InputError(f"slope must be positive, got {slope[failed[0]]}")
    return offset.reshape(g, 1, n) + slope.reshape(g, 1, n) * psi[:, :m, m:]


def estimate_distances(psi: np.ndarray, d_y: np.ndarray) -> EstimatedDistanceMatrix:
    """Both stages on one (N, N) proximity matrix, whose anchor count m is
    that of the (m, m) anchor distances ``d_y``: ``estimate_distances_stack``
    on a stack of one."""
    d_y = np.asarray(d_y, dtype=float)
    if d_y.ndim != 2:
        raise InputError(f"anchor distance block must be m x m, got shape {d_y.shape}")
    (estimates,), (failed,) = estimate_distances_stack(np.asarray(psi)[None], d_y)
    return EstimatedDistanceMatrix(estimates, tuple(int(k) for k in np.flatnonzero(failed)))


def estimate_distances_stack(psi: np.ndarray, d_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both stages on a stack of proximity matrices, as arrays.

    ``psi[g]`` holds the values of a proximity matrix whose m anchors come
    first, and ``d_y[g]`` its (m, m) anchor-to-anchor distances (one (m, m)
    block serves every matrix); m is read from the last axis of ``d_y``.
    Each stage fits every column of every matrix in one stacked call.
    Returns the (G, m, n) recalibrated estimates and the (G, m) mask of
    flagged anchors (anchors whose fit failed, given the mean of the other
    anchors' preliminary estimates).  Each matrix gets the bytes, flagged
    anchors and warnings it gets in a stack of its own, and non-finite
    estimates raise.
    """
    psi = np.asarray(psi, dtype=float)
    d_y = np.asarray(d_y, dtype=float)
    m = d_y.shape[-1] if d_y.ndim else 0
    if psi.ndim != 3 or psi.shape[1] != psi.shape[2] or psi.shape[1] < m:
        raise InputError(f"need a stack of square proximity matrices, got shape {psi.shape}")
    if d_y.shape not in [(m, m), (len(psi), m, m)]:
        raise InputError(f"anchor distance block must be m x m or G x m x m, got {d_y.shape}")
    if m < 2:
        raise UnderdeterminedFit(f"need at least 2 anchors, got {m}")
    d_y = np.broadcast_to(d_y, (len(psi), m, m))
    estimates, failed = _preliminary(psi, d_y, m)
    if not np.all(np.isfinite(estimates)):
        raise InputError("estimated distances must be finite")
    estimates = _recalibrate(psi, estimates, m)
    if not np.all(np.isfinite(estimates)):
        raise InputError("estimated distances must be finite")
    return estimates, failed
