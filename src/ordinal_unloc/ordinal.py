"""Ordinal comparisons of true distances or measured signal proxies.

Rank aggregation needs only the row sums of each reference slice of the
N x N x N comparison tensor, so that is all this module computes: the
``*_row_sums`` functions for a stack of matrices of one order, and
``tensor_from_*`` for one matrix, wrapped in a ``ComparisonTensor``.  No
N^3 array is built.  The distance route takes its noise draws from one
generator of pair differences (``_noisy_differences``) that computes
every block of slices in a workspace allocated once per call.  When a
call spans more than one block, has noise and may use more than one
CPU, one helper thread draws the next block's noise while the caller
works on the current one; it is the only code drawing from the
generators during the call and draws in the same order, so the values
and the bytes are those of drawing inline, and it is joined before the
call returns.
"""

from __future__ import annotations

import functools
import os
import warnings
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
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
        bad = ~miss & ~np.isfinite(v)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise InputError(f"signal value {v[i, j]} at present link ({i}, {j}) is not finite")
        both = ~miss & ~miss.T
        if not np.allclose(np.where(both, v, 0.0), np.where(both, v.T, 0.0)):
            raise InputError("signal matrix must be symmetric where present")
        object.__setattr__(self, "values", _frozen(v))
        object.__setattr__(self, "missing", _frozen(miss, dtype=bool))

    @property
    def order(self) -> int:
        return self.values.shape[0]


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


def _stack_orders(items, what):
    orders = {item.order for item in items}
    if len(orders) > 1:
        raise InputError(f"stacked {what} must share one order, got {sorted(orders)}")
    return orders.pop() if orders else 0


def _usable_cpus():
    """CPUs this process may run on; ``sched_getaffinity`` is not on every
    platform."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _noisy_differences(distances, sigmas, rngs):
    """Per block of the stacked reference slices of a (G, N, N) distance
    stack (slice k of matrix g is row g*N + k): d_ik - d_jk + xi for every
    pair (i, j) of ``pair_indices``.  Matrix g's noise, of standard
    deviation ``sigmas[g]``, is drawn from ``rngs[g]``, one value per slice
    and pair, in slice and pair order; the blocks cut that stream where one
    (N, N(N-1)/2) draw would be cut, so the values and the generators'
    final states are the same.

    When the stack spans more than one block, some sigma is positive and
    the process may run on more than one CPU, one helper thread draws
    block b + 1's noise into a second noise buffer while the caller
    gathers block b and works on it.  numpy releases the interpreter lock
    while it fills a buffer, so the draws overlap the caller's arithmetic;
    on one CPU they cannot, and the hand-offs cost about a tenth of a
    400-sensor call.  The helper is the only code that touches ``rngs``
    during the call and takes the blocks and matrices in order, so it
    draws the same values as an inline draw, and each value is scaled and
    added with the same operations; the bytes cannot change.  The helper
    is joined before the call returns, when the generator is closed early
    and when an error is raised, so no thread outlives it.

    Yields (rows, differences, spare): every block is computed in one
    workspace allocated per call, so both arrays are valid only until the
    next block is requested, and ``spare``, of the same shape, is free
    for the caller to overwrite."""
    g_count, n, _ = distances.shape
    # dk[g*N + k, i] = distance from sensor i to reference k in matrix g
    dk = np.swapaxes(distances, 1, 2).reshape(g_count * n, n)
    i, j = pair_indices(n)
    blocks = _slice_blocks(len(dk), n)
    if not blocks:
        return
    size = (blocks[0].stop, len(i))
    work, other = np.empty(size), np.empty(size)

    def noisy_parts(rows):
        """(part of the block, g) for every matrix with noise in the rows"""
        for g in range(rows.start // n, (rows.stop - 1) // n + 1):
            if sigmas[g] > 0:
                yield slice(max(g * n - rows.start, 0), (g + 1) * n - rows.start), g

    def draw(rows, noise):
        for part, g in noisy_parts(rows):
            rngs[g].standard_normal(out=noise[part])
            noise[part] *= sigmas[g]
        return noise

    helper = None
    if len(blocks) > 1 and any(sigma > 0 for sigma in sigmas) and _usable_cpus() > 1:
        helper = ThreadPoolExecutor(max_workers=1)
        ahead = helper.submit(draw, blocks[0], np.empty(size))
        free = np.empty(size)
    try:
        for b, rows in enumerate(blocks):
            diff, tmp = work[: rows.stop - rows.start], other[: rows.stop - rows.start]
            if helper is not None:
                # free held block b - 1's noise, which was added before
                # that block was yielded
                drawn = ahead
                if b + 1 < len(blocks):
                    ahead = helper.submit(draw, blocks[b + 1], free)
            # mode="clip" lets take write into out= directly; the indices
            # are in range, so it clips nothing
            np.take(dk[rows], i, axis=1, mode="clip", out=diff)
            np.take(dk[rows], j, axis=1, mode="clip", out=tmp)
            diff -= tmp
            if helper is None:
                noise = draw(rows, tmp)
            else:
                noise = free = drawn.result()
            for part, _ in noisy_parts(rows):
                diff[part] += noise[part]
            yield rows, diff, tmp
    finally:
        if helper is not None:
            helper.shutdown(cancel_futures=True)


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
    (row_sums,) = distance_row_sums(D.values[None], [noise.sigma], [rng])
    return ComparisonTensor(row_sums, D.n_anchors)


def distance_row_sums(
    distances: np.ndarray,
    sigmas: Sequence[float],
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Row sums of the comparison slices of a (G, N, N) stack of distance
    matrices under threshold noise.

    ``out[g, k, i]`` is the sum over j of sgn(d_ik - d_jk + xi_kij), the
    comparison of sensors i and j at reference k of matrix g, whose noise
    of standard deviation ``sigmas[g]`` is drawn from ``rngs[g]``: one
    value per slice and unordered pair (i < j), in slice and pair order,
    with xi_kji = -xi_kij.  Each pair's sign is added to row i and
    subtracted from row j by two ``bincount``s, so the sums are exact
    integers.  The stack and the noise levels are checked as
    ``DistanceMatrix`` and ``ComparisonNoiseModel`` check one of each.
    """
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 3 or distances.shape[1] != distances.shape[2]:
        raise InputError(f"need a stack of square distance matrices, got shape {distances.shape}")
    if not len(distances) == len(sigmas) == len(rngs):
        raise InputError("need one noise level and one generator per distance matrix")
    check_finite_distances(distances)
    for sigma in sigmas:
        if not (np.isfinite(sigma) and sigma >= 0):
            raise InputError(f"sigma must be finite and nonnegative, got {sigma}")
    g_count, n, _ = distances.shape
    i, j = pair_indices(n)
    out = np.empty((g_count * n, n), dtype=np.int64)
    with closing(_noisy_differences(distances, sigmas, rngs)) as blocks:
        for rows, diff, spare in blocks:
            # slice s of the block sums into bins s*N + i
            base = np.arange(len(diff))[:, None] * n
            # into the spare buffer: a new array would cost an allocation
            # per block, and np.sign in place is several times slower than
            # either
            sign = np.sign(diff, out=spare).ravel()
            size = len(diff) * n
            sums = np.bincount((base + i).ravel(), sign, size)
            sums -= np.bincount((base + j).ravel(), sign, size)
            out[rows] = sums.reshape(len(diff), n)
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


def _signal_ranks(signals):
    """present[g*N + k, i] (link i-k of matrix g measured) and the dense
    rank of each oriented value within its reference slice; missing links
    rank as 0.0.  Present values are finite, so comparing their ranks
    within a slice gives the same signs as subtracting them."""
    _stack_orders(signals, "signal matrices")
    if not signals:
        return np.empty((0, 0), dtype=bool), np.empty((0, 0), dtype=np.uint8)
    present = np.concatenate([~S.missing.T for S in signals])
    oriented = np.concatenate(
        [(S.values if S.increasing_with_distance else -S.values).T for S in signals]
    )
    return present, _dense_ranks(np.where(present, oriented, 0.0))


def _warn_sparse_slices(present):
    n = len(present)
    # slice k compares the pairs of the other N - 1 sensors; its own link
    # is always missing, so with N <= 2 there is no such pair
    if n < 3:
        return
    # ordered pairs of those sensors with a missing end: all but c_k (c_k - 1)
    counts = present.sum(axis=1)
    pairs = (n - 1) * (n - 2)
    missing_frac = (pairs - counts * (counts - 1)) / pairs
    for k in np.nonzero(missing_frac > 0.5)[0]:
        warnings.warn(
            f"slice {k}: {missing_frac[k]:.0%} of comparisons missing; "
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
    return ComparisonTensor(signal_row_sums([S])[0], S.n_anchors)


def signal_row_sums(signals: Sequence[SignalMatrix]) -> np.ndarray:
    """Row sums of the comparison slices of a stack of signal matrices of
    one order.

    ``out[g, k, i]`` is, for a present link i-k of matrix g, the number of
    present values of slice k ranked below sensor i's minus the number
    ranked above it, and 0 for a missing link.  The counts come from a
    per-slice histogram of the present ranks, in O(N^2) per matrix.  Each
    matrix warns ``SliceCoverageWarning`` for every slice that misses more
    than half of its comparisons.
    """
    present, ranks = _signal_ranks(signals)
    rows, n = present.shape
    bins = np.arange(rows)[:, None] * n + ranks
    at_rank = np.bincount(bins[present], minlength=rows * n).reshape(rows, n)
    up_to_rank = np.cumsum(at_rank, axis=1)
    le = np.take_along_axis(up_to_rank, ranks, axis=1)
    eq = np.take_along_axis(at_rank, ranks, axis=1)
    # below = le - eq, above = c_k - le
    out = np.where(present, 2 * le - eq - up_to_rank[:, -1:], 0)
    for g in range(len(signals)):
        _warn_sparse_slices(present[g * n : (g + 1) * n])
    return out.reshape(len(signals), n, n)
