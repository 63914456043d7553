"""Least-squares (HodgeRank) rank aggregation of comparison slices.

Each slice of comparisons is solved for a zero-sum score vector.  On the
complete graph the least-squares solution has the closed form B^T z / N,
with B the edge-node incidence matrix and z the slice flattened along the
edge list: the slice's row sums divided by N (Jiang, Lim, Yao & Ye,
Math. Programming 2011).  So only the row sums are computed
(``ordinal.*_row_sums``) and no slice is built; the incidence matrix and
the dense pseudoinverse route are kept in the tests as an oracle.
"""

from __future__ import annotations

import numpy as np

from .core import ComparisonTensor


def proximity_scores(row_sums: np.ndarray) -> np.ndarray:
    """Score vectors of comparison slices given only their row sums.

    Row sums of a slice equal B^T of its flattened vector (skew-symmetry),
    so ``scores[i, k] = row_sums[k, i] / N``.  Works on one (N, N) array
    of row sums or on a stack of them; the row sums come from
    ``ordinal.*_row_sums`` or from a ``ComparisonTensor``.
    """
    row_sums = np.asarray(row_sums)
    return np.swapaxes(row_sums, -1, -2) / row_sums.shape[-1]


def aggregate_proximities(tensor: ComparisonTensor) -> np.ndarray:
    """The (N, N) proximity matrix of a tensor: column k is the score
    vector of reference sensor k."""
    return proximity_scores(tensor.row_sums)
