"""The estimator's stage chain, written once: comparison row sums ->
proximities -> distance estimates -> positions.  ``estimate`` is the
first half, which a Monte-Carlo trial runs per group before its one
solver batch; ``localize`` is the whole chain.  ``localize_from_tensor``
is the one-matrix route of a ``ComparisonTensor``."""

from __future__ import annotations

import numpy as np

from .core import InputError, point_distances
from .funclearn import EstimatedDistanceMatrix, estimate_distances, estimate_distances_stack
from .rank import aggregate_proximities, proximity_scores
from .unfold import ColumnSolution, LocalizationResult, SolverOptions, localize_all, solve_columns


def estimate(row_sums: np.ndarray, anchor_distances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G, m, n) anchor-to-target distance estimates and the (G, m) mask of
    flagged anchors of a (G, N, N) stack of comparison row sums, whose m
    anchors come first; ``anchor_distances`` is one (m, m) block for every
    matrix or a (G, m, m) stack of them."""
    return estimate_distances_stack(proximity_scores(row_sums), anchor_distances)


def localize(anchors: np.ndarray, row_sums: np.ndarray) -> ColumnSolution:
    """Positions of the targets of every matrix of a (G, N, N) stack of
    comparison row sums, from the (m, q) anchor positions: ``estimate``,
    then one ``solve_columns`` batch of every (matrix, target) column."""
    anchors = np.asarray(anchors, dtype=float)
    if anchors.ndim != 2:
        raise InputError(f"anchors must be an (m, q) array, got shape {anchors.shape}")
    estimates, _ = estimate(row_sums, point_distances(anchors))
    stacked = np.broadcast_to(anchors, (len(estimates),) + anchors.shape)
    (solution,) = solve_columns([(stacked, estimates)])
    return solution


def localize_from_tensor(
    tensor,
    anchors: np.ndarray,
    opts: SolverOptions | None = None,
) -> tuple[list[LocalizationResult | None], EstimatedDistanceMatrix]:
    """Run rank aggregation, function learning and unfolding on a tensor.

    Returns the per-target solver results and the recalibrated
    anchor-to-target distance estimates.  ``anchors`` must hold one
    position per anchor of the tensor.  ``opts`` is accepted but not
    read, because existing callers, such as perfbench's workloads, pass
    one.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    if len(anchors) != tensor.n_anchors:
        raise InputError(f"tensor has {tensor.n_anchors} anchors, got {len(anchors)} positions")
    d_hat = estimate_distances(aggregate_proximities(tensor), point_distances(anchors))
    return localize_all(anchors, d_hat), d_hat
