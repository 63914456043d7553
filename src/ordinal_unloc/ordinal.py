"""Ordinal comparisons of true distances or measured signal proxies.

Rank aggregation needs only the row sums of each reference slice of the
N x N x N comparison tensor, so that is all this module computes: the
``*_row_sums`` functions for a (G, N, N) stack of matrices, and
``tensor_from_*`` for one matrix, wrapped in a ``ComparisonTensor``.  No
N^3 array is built.  The distance route is one function,
``distance_row_sums``, which draws the threshold noise, works through
the slices in blocks and owns its workspace.
"""

from __future__ import annotations

import functools
import os
import warnings
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import ComparisonTensor, DistanceMatrix, InputError, _frozen, check_finite_distances


class SliceCoverageWarning(UserWarning):
    """More than half of a slice's comparisons are missing."""


@dataclass(frozen=True)
class ComparisonNoiseModel:
    """Gaussian comparison noise, one draw per unordered pair per slice."""

    sigma: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise InputError(f"sigma must be finite and nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class SignalMatrix:
    """Measured link proxies (power, time of flight) for all sensor pairs.

    ``increasing_with_distance`` declares the orientation: True for
    time-of-flight-like proxies, False for received power.  Missing links
    (including the diagonal) are flagged in ``missing``.  Checked as
    ``signal_row_sums`` checks a stack of one, with 0 <= n_anchors <= N.
    """

    values: np.ndarray
    increasing_with_distance: bool
    n_anchors: int
    missing: np.ndarray | None = None

    def __post_init__(self):
        present = None if self.missing is None else ~np.asarray(self.missing, dtype=bool)[None]
        values, present = _checked_signals(np.asarray(self.values, dtype=float)[None], present)
        if not (0 <= self.n_anchors <= values.shape[1]):
            raise InputError("anchor count out of range for signal matrix")
        object.__setattr__(self, "values", _frozen(values[0]))
        object.__setattr__(self, "missing", _frozen(~present[0], dtype=bool))

    @property
    def order(self) -> int:
        return self.values.shape[0]


def _checked_signals(values, present):
    """The signal route's one check, of ``signal_row_sums``' arguments:
    returns the stack as floats and a new presence mask without the
    diagonal.  Errors about one matrix name its index in a longer stack."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[1] != values.shape[2]:
        raise InputError(f"signal matrix must be square, got shape {values.shape[1:]}")
    one = len(values) == 1
    if present is None:
        present = np.ones(values.shape, dtype=bool)
    else:
        present = np.array(present, dtype=bool)
        if present.shape != values.shape:
            raise InputError(f"{'missing' if one else 'presence'} mask shape must match values")
    present &= ~np.eye(values.shape[1], dtype=bool)
    bad = present & ~np.isfinite(values)
    if bad.any():
        g, i, j = np.argwhere(bad)[0]
        where = "" if one else f" of matrix {g}"
        raise InputError(
            f"signal value {values[g, i, j]} at present link ({i}, {j}){where} is not finite"
        )
    kept = np.where(present & np.swapaxes(present, 1, 2), values, 0.0)
    # relative only: an absolute floor would pass or fail the same
    # readings depending on their unit
    asymmetric = ~np.isclose(kept, np.swapaxes(kept, 1, 2), rtol=1e-5, atol=0.0)
    if asymmetric.any():
        name = "signal matrix" if one else f"signal matrix {np.argwhere(asymmetric)[0][0]}"
        raise InputError(f"{name} must be symmetric where present")
    return values, present


# Comparison entries per block of reference slices.  Temporaries scale
# with the block, not with N^3; up to N = 64 one matrix is one block.  The
# distance route holds two float64 buffers of one block's pairs (under
# 2 MB together), and two more for noise drawn ahead when the call spans
# several blocks, allocated once per call and reused for every block; from
# N = 363 on a block is a single slice.
_BLOCK_ELEMENTS = 1 << 18


def _slice_blocks(n, order):
    """Consecutive ranges of n reference slices of the given order, about
    _BLOCK_ELEMENTS comparison entries each."""
    step = max(1, _BLOCK_ELEMENTS // max(order * order, 1))
    return [slice(k, min(k + step, n)) for k in range(0, n, step)]


@functools.lru_cache(maxsize=32)
def pair_indices(n):
    """Unordered pairs (i, j), i < j, of n items in lexicographic order, as
    two read-only index arrays; built once per order."""
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _usable_cpus():
    """CPUs this process may run on; ``sched_getaffinity`` is not on every
    platform."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def tensor_from_distances(
    D: DistanceMatrix,
    noise: ComparisonNoiseModel,
    rng: np.random.Generator | None = None,
) -> ComparisonTensor:
    """Ordinal comparisons of true distances under threshold noise, as the
    row sums of ``distance_row_sums`` for one matrix.

    For every reference sensor k and unordered pair {i, j}, one noise value
    is drawn and negated for the mirrored comparison, so each slice is
    exactly skew-symmetric and its row sums sum to 0.  Without ``rng`` the
    draws come from a fresh ``default_rng()``.
    """
    rng = np.random.default_rng() if rng is None else rng
    (row_sums,) = distance_row_sums(D.values[None], [noise.sigma], rng)
    return ComparisonTensor(row_sums, D.n_anchors)


def distance_row_sums(
    distances: np.ndarray, sigmas: Sequence[float], rng: np.random.Generator
) -> np.ndarray:
    """Row sums of the comparison slices of a (G, N, N) stack of distance
    matrices under threshold noise.

    ``out[g, k, i]`` is the sum over j of sgn(d_ik - d_jk + xi_kij), the
    comparison of sensors i and j at reference k of matrix g, with
    xi_kji = -xi_kij.  If some sigma is positive, the stack's noise is one
    (G N, N(N-1)/2) standard normal draw from ``rng``, whose row g*N + k
    holds slice k of matrix g, its pairs (i < j) in order, scaled by
    ``sigmas[g]``, 0 included; else nothing is drawn.  The stack and the
    noise levels are checked as ``DistanceMatrix`` and
    ``ComparisonNoiseModel`` check one of each.

    The stacked slices are taken in blocks of ``_slice_blocks``, all
    computed in one workspace allocated per call.  Each block's noise is
    one fill of the next draws, so the values and the generator's final
    state are those of the whole draw.  Each pair's sign is added to row i
    and subtracted from row j by two ``bincount``s, so the sums are exact
    integers.

    When the stack spans more than one block, some sigma is positive and
    the process may run on more than one CPU, one helper thread draws
    block b + 1's noise into a second noise buffer while the caller
    gathers block b and works on it.  numpy releases the interpreter lock
    while it fills a buffer, so the draws overlap the caller's arithmetic;
    on one CPU they cannot, and the hand-offs cost about a tenth of a
    400-sensor call.  The helper is the only code that touches ``rng``
    during the call and takes the blocks in order, so it draws the same
    values as an inline draw, and each value is scaled and added with the
    same operations; the bytes cannot change.  The helper is shut down
    before the call returns or raises, so no thread outlives it.
    """
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 3 or distances.shape[1] != distances.shape[2]:
        raise InputError(f"need a stack of square distance matrices, got shape {distances.shape}")
    if len(distances) != len(sigmas):
        raise InputError("need one noise level per distance matrix")
    check_finite_distances(distances)
    for sigma in sigmas:
        if not (np.isfinite(sigma) and sigma >= 0):
            raise InputError(f"sigma must be finite and nonnegative, got {sigma}")
    g_count, n, _ = distances.shape
    out = np.empty((g_count * n, n), dtype=np.int64)
    # dk[g*N + k, i] = distance from sensor i to reference k in matrix g
    dk = np.swapaxes(distances, 1, 2).reshape(g_count * n, n)
    i, j = pair_indices(n)
    blocks = _slice_blocks(len(dk), n)
    if not blocks:
        return out.reshape(g_count, n, n)
    size = (blocks[0].stop, len(i))
    work, other = np.empty(size), np.empty(size)
    # the noise level of each stacked slice, as a column
    scale = np.repeat(np.asarray(sigmas, dtype=float), n)[:, None]
    noisy = bool(scale.any())

    # An overflowed sigma * z is +-inf, and the sign of a difference plus
    # it is still the comparison's exact value.  numpy's error state is
    # per thread, so draw sets its own.
    def draw(rows, noise):
        part = noise[: rows.stop - rows.start]
        rng.standard_normal(out=part)
        with np.errstate(over="ignore"):
            part *= scale[rows]
        return noise

    helper = None
    if len(blocks) > 1 and noisy and _usable_cpus() > 1:
        helper = ThreadPoolExecutor(max_workers=1)
        ahead = helper.submit(draw, blocks[0], np.empty(size))
        free = np.empty(size)
    try:
        for b, rows in enumerate(blocks):
            diff, spare = work[: rows.stop - rows.start], other[: rows.stop - rows.start]
            if helper is not None:
                # free held block b - 1's noise, which was added to that
                # block's differences
                drawn = ahead
                if b + 1 < len(blocks):
                    ahead = helper.submit(draw, blocks[b + 1], free)
            # mode="clip" lets take write into out= directly; the indices
            # are in range, so it clips nothing
            np.take(dk[rows], i, axis=1, mode="clip", out=diff)
            np.take(dk[rows], j, axis=1, mode="clip", out=spare)
            diff -= spare
            with np.errstate(over="ignore"):
                if helper is not None:
                    free = drawn.result()
                    diff += free[: len(diff)]
                elif noisy:
                    diff += draw(rows, spare)
            # slice s of the block sums into bins s*N + i
            base = np.arange(len(diff))[:, None] * n
            # into the spare buffer: a new array would cost an allocation
            # per block, and np.sign in place is several times slower than
            # either
            sign = np.sign(diff, out=spare).ravel()
            block_size = len(diff) * n
            sums = np.bincount((base + i).ravel(), sign, block_size)
            sums -= np.bincount((base + j).ravel(), sign, block_size)
            out[rows] = sums.reshape(len(diff), n)
    finally:
        if helper is not None:
            helper.shutdown(cancel_futures=True)
    return out.reshape(g_count, n, n)


def _dense_ranks(x):
    """Rank of each entry within its row; equal values share a rank."""
    order = np.argsort(x, axis=1)
    ordered = np.take_along_axis(x, order, axis=1)
    steps = np.zeros(x.shape, dtype=np.min_scalar_type(max(x.shape[1] - 1, 0)))
    steps[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=1, dtype=steps.dtype), axis=1)
    return ranks


def _warn_sparse_slices(present):
    """Warn for each sparse slice k of a matrix g (row g*N + k)."""
    n = present.shape[1]
    # slice k compares the pairs of the other N - 1 sensors; its own link
    # is always missing, so with N <= 2 there is no such pair
    if n < 3:
        return
    # ordered pairs of those sensors with a missing end: all but c_k (c_k - 1)
    counts = present.sum(axis=1)
    pairs = (n - 1) * (n - 2)
    missing_frac = (pairs - counts * (counts - 1)) / pairs
    for row in np.nonzero(missing_frac > 0.5)[0]:
        warnings.warn(
            f"slice {row % n}: {missing_frac[row]:.0%} of comparisons missing; "
            "localization quality degrades",
            SliceCoverageWarning,
            stacklevel=3,
        )


def tensor_from_signals(S: SignalMatrix) -> ComparisonTensor:
    """Ordinal comparisons of measured proxies, as the row sums of
    ``signal_row_sums`` for one matrix.

    Comparisons are oriented so +1 always means "i is farther from k than
    j" regardless of whether the proxy grows or shrinks with distance.
    Comparisons touching a missing link count as 0.
    """
    (row_sums,) = signal_row_sums(S.values[None], ~S.missing[None], S.increasing_with_distance)
    return ComparisonTensor(row_sums, S.n_anchors)


def signal_row_sums(
    values: np.ndarray, present: np.ndarray | None, increasing_with_distance: bool
) -> np.ndarray:
    """Row sums of the comparison slices of a (G, N, N) stack of signal
    matrices of one orientation.  ``present[g, i, k]`` says link i-k of
    matrix g was measured (None: every link; never the diagonal).  Each
    matrix must be finite where present and symmetric, to a relative
    1e-5, where both directions are present.

    ``out[g, k, i]`` is, for a present link i-k of matrix g, the number of
    present values of slice k ranked below sensor i's minus the number
    ranked above it, and 0 for a missing link.  The counts come from a
    per-slice histogram of the present ranks, in O(N^2) per matrix.  Each
    matrix warns ``SliceCoverageWarning`` for every slice that misses more
    than half of its comparisons.
    """
    values, present = _checked_signals(values, present)
    g_count, n, _ = values.shape
    rows = g_count * n
    # row g*N + k holds slice k of matrix g, whose column i is link i-k
    present = np.swapaxes(present, 1, 2).reshape(rows, n)
    oriented = np.swapaxes(values if increasing_with_distance else -values, 1, 2)
    # present values are finite, so comparing their ranks within a slice
    # gives the same signs as subtracting them; missing links rank as 0.0
    ranks = _dense_ranks(np.where(present, oriented.reshape(rows, n), 0.0))
    bins = np.arange(rows)[:, None] * n + ranks
    at_rank = np.bincount(bins[present], minlength=rows * n).reshape(rows, n)
    up_to_rank = np.cumsum(at_rank, axis=1)
    le = np.take_along_axis(up_to_rank, ranks, axis=1)
    eq = np.take_along_axis(at_rank, ranks, axis=1)
    # below = le - eq, above = c_k - le
    out = np.where(present, 2 * le - eq - up_to_rank[:, -1:], 0)
    _warn_sparse_slices(present)
    return out.reshape(g_count, n, n)
