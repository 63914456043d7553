"""Ordinal UNLOC: target localization from one-bit ordinal distance
comparisons, via rank aggregation, function learning and unfolding
optimization."""

__version__ = "0.1.0"

from .core import (
    ComparisonTensor,
    ConfigError,
    DistanceMatrix,
    InputError,
    OrdinalUnlocError,
    ProximityMatrix,
    SensorField,
    read_sensor_field,
)
from .funclearn import estimate_distances, estimate_distances_stack
from .ordinal import (
    ComparisonNoiseModel,
    SignalMatrix,
    distance_row_sums,
    signal_row_sums,
    tensor_from_distances,
    tensor_from_signals,
)
from .pipeline import localize_from_tensor
from .rank import aggregate_proximities, proximity_scores
from .unfold import (
    LocalizationResult,
    SolverOptions,
    localize_all,
    solve_columns,
    unloc_localize,
)

__all__ = [
    "ComparisonNoiseModel",
    "ComparisonTensor",
    "ConfigError",
    "DistanceMatrix",
    "InputError",
    "LocalizationResult",
    "OrdinalUnlocError",
    "ProximityMatrix",
    "SensorField",
    "SignalMatrix",
    "SolverOptions",
    "aggregate_proximities",
    "distance_row_sums",
    "estimate_distances",
    "estimate_distances_stack",
    "localize_all",
    "localize_from_tensor",
    "proximity_scores",
    "read_sensor_field",
    "signal_row_sums",
    "solve_columns",
    "tensor_from_distances",
    "tensor_from_signals",
    "unloc_localize",
]
