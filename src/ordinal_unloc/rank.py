"""Least-squares (HodgeRank) rank aggregation of comparison slices.

Each slice of the comparison tensor is flattened along the edge list of
the complete graph and solved for a zero-sum score vector.  On the
complete graph the constrained least-squares solution has the closed form
B^T z / N, which is the production path; the dense pseudoinverse route is
kept for incomplete data and as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ComparisonTensor, InputError, ProximityMatrix


@dataclass(frozen=True)
class PairEnumeration:
    """Lexicographic list of all unordered pairs (i, j), i < j, 0-based."""

    n_items: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def enumerate_pairs(n: int) -> PairEnumeration:
    if n < 2:
        raise InputError(f"need at least 2 items to enumerate pairs, got {n}")
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return PairEnumeration(n, pairs)


def incidence_matrix(enum: PairEnumeration) -> np.ndarray:
    """M x N edge-node incidence matrix: +1 at i, -1 at j per pair row."""
    b = np.zeros((enum.n_pairs, enum.n_items))
    rows = np.arange(enum.n_pairs)
    i_idx = np.array([p[0] for p in enum.pairs])
    j_idx = np.array([p[1] for p in enum.pairs])
    b[rows, i_idx] = 1.0
    b[rows, j_idx] = -1.0
    return b


def flatten_slice(z_slice: np.ndarray, enum: PairEnumeration) -> np.ndarray:
    """Upper-triangular entries of a slice in enumeration order."""
    z_slice = np.asarray(z_slice)
    if z_slice.shape != (enum.n_items, enum.n_items):
        raise InputError(
            f"slice shape {z_slice.shape} does not match enumeration over {enum.n_items}"
        )
    i_idx = np.array([p[0] for p in enum.pairs])
    j_idx = np.array([p[1] for p in enum.pairs])
    return z_slice[i_idx, j_idx].astype(float)


def ls_rank(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zero-sum score vector minimizing ||B psi - z|| on the complete graph.

    B^T B = N I - 1 1^T for the complete graph, so the pseudoinverse acts
    as 1/N on the zero-sum subspace and the solution is just B^T z / N.
    """
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != z.shape[0]:
        raise InputError(f"incidence rows {b.shape[0]} != comparison length {z.shape[0]}")
    return b.T @ z / b.shape[1]


def ls_rank_pinv(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """General-graph route via the Laplacian pseudoinverse, centered to
    zero sum.  Accuracy on incomplete graphs is uncharacterized."""
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    psi = np.linalg.pinv(b.T @ b) @ (b.T @ z)
    return psi - psi.mean()


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
