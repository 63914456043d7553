"""Comparison-tensor generation from true distances or measured signal proxies."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ComparisonTensor, DistanceMatrix, InputError, _frozen


class SliceCoverageWarning(UserWarning):
    """More than half of a slice's comparisons are missing."""


@dataclass(frozen=True)
class ComparisonNoiseModel:
    """Gaussian comparison noise, one draw per unordered pair per slice."""

    sigma: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise InputError(f"sigma must be finite and nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class SignalMatrix:
    """Measured link proxies (power, time of flight) for all sensor pairs.

    ``increasing_with_distance`` declares the orientation: True for
    time-of-flight-like proxies, False for received power.  Missing links
    (including the diagonal) are flagged in ``missing``.
    """

    values: np.ndarray
    increasing_with_distance: bool
    n_anchors: int
    missing: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InputError(f"signal matrix must be square, got shape {v.shape}")
        n = v.shape[0]
        if self.missing is None:
            miss = np.zeros((n, n), dtype=bool)
        else:
            miss = np.array(self.missing, dtype=bool)
            if miss.shape != v.shape:
                raise InputError("missing mask shape must match values")
        np.fill_diagonal(miss, True)
        bad = np.argwhere(~miss & ~np.isfinite(v))
        if bad.size:
            i, j = bad[0]
            raise InputError(f"signal value {v[i, j]} at present link ({i}, {j}) is not finite")
        both = ~miss & ~miss.T
        if not np.allclose(np.where(both, v, 0.0), np.where(both, v.T, 0.0)):
            raise InputError("signal matrix must be symmetric where present")
        object.__setattr__(self, "values", _frozen(v))
        object.__setattr__(self, "missing", _frozen(miss, dtype=bool))

    @property
    def order(self) -> int:
        return self.values.shape[0]


def compare_ordinal(d: float, d_prime: float, xi: float) -> int:
    """Thresholded comparison sgn(d - d' + xi); 0 only on an exact tie."""
    return int(np.sign(d - d_prime + xi))


# Tensor entries filled per block of reference slices.  Temporaries scale
# with the block, not with N^3; up to N = 64 the tensor is one block, and
# at N = 200 the float temporaries of a block stay near a quarter of the
# tensor's own bytes.
_BLOCK_ELEMENTS = 1 << 18


def _slice_blocks(n):
    """Consecutive ranges of reference slices, _BLOCK_ELEMENTS entries each."""
    step = max(1, _BLOCK_ELEMENTS // max(n * n, 1))
    return [slice(k, min(k + step, n)) for k in range(0, n, step)]


def _sign_int8(a, b):
    """sgn(a - b) as int8, broadcasting a against b."""
    return (a > b).view(np.int8) - (a < b).view(np.int8)


def tensor_from_distances(
    D: DistanceMatrix,
    noise: ComparisonNoiseModel,
    rng: np.random.Generator | None = None,
) -> ComparisonTensor:
    """Ordinal comparisons of true distances under threshold noise.

    For every reference sensor k and unordered pair {i, j}, one noise value
    is drawn and negated for the mirrored entry, so each slice is exactly
    skew-symmetric.  The draws come slice by slice in pair order, the same
    stream as one (N, N(N-1)/2) draw.
    """
    if rng is None:
        rng = np.random.default_rng(noise.seed)
    n = D.order
    dk = np.ascontiguousarray(D.values.T)  # dk[k, i] = distance from sensor i to reference k
    i, j = np.triu_indices(n, k=1)
    upper, lower = i * n + j, j * n + i
    z = np.zeros((n, n, n), dtype=np.int8)
    for ks in _slice_blocks(n):
        diff = np.take(dk[ks], i, axis=1)
        diff -= np.take(dk[ks], j, axis=1)
        if noise.sigma > 0:
            diff += rng.standard_normal(diff.shape) * noise.sigma
        sign = _sign_int8(diff, 0.0)
        flat = z[ks].reshape(len(sign), n * n)
        flat[:, upper] = sign
        # IEEE negation is exact, so sgn(-a - x) == -sgn(a + x)
        flat[:, lower] = -sign
    z.flags.writeable = False  # handed over without a copy
    return ComparisonTensor(z, D.n_anchors)


def _dense_ranks(x):
    """Rank of each entry within its row; equal values share a rank."""
    order = np.argsort(x, axis=1)
    ordered = np.take_along_axis(x, order, axis=1)
    steps = np.zeros(x.shape, dtype=np.min_scalar_type(max(x.shape[1] - 1, 0)))
    steps[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=1, dtype=steps.dtype), axis=1)
    return ranks


def tensor_from_signals(S: SignalMatrix) -> ComparisonTensor:
    """Ordinal comparisons of measured proxies.

    Entries are oriented so +1 always means "i is farther from k than j"
    regardless of whether the proxy grows or shrinks with distance.
    Comparisons touching a missing link yield 0.  Present values are
    finite, so comparing their ranks within a slice gives the same signs
    as subtracting them.
    """
    p = S.values if S.increasing_with_distance else -S.values
    present = np.ascontiguousarray(~S.missing.T)  # present[k, i]: link i-k measured
    ranks = _dense_ranks(np.where(present, p.T, 0.0))
    flags = present.view(np.int8)
    n = S.order
    z = np.empty((n, n, n), dtype=np.int8)
    for ks in _slice_blocks(n):
        r = ranks[ks]
        z[ks] = _sign_int8(r[:, :, None], r[:, None, :])
        z[ks] *= flags[ks, :, None]
        z[ks] *= flags[ks, None, :]
    if n > 1:
        # off-diagonal pairs of slice k with a missing end: all but c_k (c_k - 1)
        counts = present.sum(axis=1)
        missing_frac = (n * (n - 1) - counts * (counts - 1)) / (n * (n - 1))
        for k in np.nonzero(missing_frac > 0.5)[0]:
            warnings.warn(
                f"slice {k}: {missing_frac[k]:.0%} of comparisons missing; "
                "localization quality degrades",
                SliceCoverageWarning,
                stacklevel=2,
            )
    z.flags.writeable = False  # handed over without a copy
    return ComparisonTensor(z, S.n_anchors)
