"""End-to-end composition of a comparison tensor: proximities ->
distances -> positions, for callers that hold an N x N x N
``ComparisonTensor``.  Each stage is a thin adapter of the array stage
that the Monte-Carlo trials and ``localize`` run without a tensor:
``rank.proximity_scores``, ``funclearn.estimate_distances_stack`` and
``unfold.solve_columns``."""

from __future__ import annotations

import numpy as np

from .core import point_distances
from .funclearn import EstimatedDistanceMatrix, estimate_distances
from .rank import aggregate_proximities
from .unfold import LocalizationResult, SolverOptions, localize_all


def localize_from_tensor(
    tensor,
    anchors: np.ndarray,
    opts: SolverOptions | None = None,
) -> tuple[list[LocalizationResult | None], EstimatedDistanceMatrix]:
    """Run rank aggregation, function learning and unfolding on a tensor.

    Returns the per-target solver results and the recalibrated
    anchor-to-target distance estimates.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    d_hat = estimate_distances(aggregate_proximities(tensor), point_distances(anchors))
    return localize_all(anchors, d_hat, opts), d_hat
