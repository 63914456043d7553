"""End-to-end composition: comparison tensor -> proximities -> distances
-> positions.  Shared by the benchmark harness, the ingest workflow and
the CLI."""

from __future__ import annotations

import numpy as np

from .core import point_distances
from .funclearn import EstimatedDistanceMatrix, estimate_distances
from .rank import aggregate_proximities
from .unfold import LocalizationResult, SolverOptions, localize_all


def estimate_from_tensor(tensor, anchors: np.ndarray) -> EstimatedDistanceMatrix:
    """Rank aggregation and function learning: the recalibrated
    anchor-to-target distance estimates of a comparison tensor."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    psi = aggregate_proximities(tensor)
    return estimate_distances(psi, point_distances(anchors))


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
    d_hat = estimate_from_tensor(tensor, anchors)
    return localize_all(anchors, d_hat, opts), d_hat
