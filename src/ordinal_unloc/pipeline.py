"""End-to-end composition of a ``ComparisonTensor`` (the row sums of its
N comparison slices): proximities -> distances -> positions.  Each stage
is a thin adapter of the array stage that the Monte-Carlo trials and
``localize`` run on stacked arrays: ``rank.proximity_scores``,
``funclearn.estimate_distances_stack`` and ``unfold.solve_columns``."""

from __future__ import annotations

import numpy as np

from .core import InputError, point_distances
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
