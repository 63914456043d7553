"""Least-squares (HodgeRank) rank aggregation of comparison slices.

Each slice of comparisons is solved for a zero-sum score vector.  On the
complete graph the least-squares solution has the closed form B^T z / N,
with B the edge-node incidence matrix and z the slice flattened along the
edge list: the slice's row sums divided by N (Jiang, Lim, Yao & Ye,
Math. Programming 2011).  The incidence matrix and the dense
pseudoinverse route are kept in the tests as an oracle.
"""

from __future__ import annotations

import numpy as np

from .core import ComparisonTensor, ProximityMatrix


def proximity_scores(row_sums: np.ndarray) -> np.ndarray:
    """Score vectors of comparison slices given only their row sums.

    Row sums of a slice equal B^T of its flattened vector (skew-symmetry),
    so ``scores[i, k] = row_sums[k, i] / N``.  Works on one (N, N) array
    of row sums or on a stack of them; the row sums come from
    ``ordinal.*_row_sums`` without a tensor, or from a tensor.
    """
    row_sums = np.asarray(row_sums)
    return np.swapaxes(row_sums, -1, -2) / row_sums.shape[-1]


def aggregate_proximities(tensor: ComparisonTensor) -> ProximityMatrix:
    """Stack the per-slice score vectors of a tensor into the proximity matrix."""
    z = tensor.values
    # a row sum of an N x N slice lies in [-(N - 1), N - 1]; int16 holds it
    # for any tensor that fits in memory and sums int8 far faster than int64
    acc = np.int16 if len(z) <= np.iinfo(np.int16).max + 1 else np.int64
    return ProximityMatrix(proximity_scores(z.sum(axis=2, dtype=acc)), tensor.n_anchors)
