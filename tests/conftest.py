import numpy as np
import pytest

from ordinal_unloc.core import DistanceMatrix, IllPosedWarning, point_distances


@pytest.fixture(autouse=True)
def _quiet_ill_posed(recwarn):
    # small synthetic fields trip the anchor-count warning constantly
    import warnings

    warnings.simplefilter("always")
    warnings.filterwarnings("ignore", category=IllPosedWarning)
    yield


def random_field_distances(rng, m, n, side=1.0):
    """Random anchors/targets in a square plus the exact distance matrix."""
    anchors = rng.uniform(0, side, size=(m, 2))
    targets = rng.uniform(0, side, size=(n, 2))
    return anchors, targets, DistanceMatrix(point_distances(np.vstack([anchors, targets])), m)
