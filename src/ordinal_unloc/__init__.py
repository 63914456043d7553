"""Ordinal UNLOC: target localization from one-bit ordinal distance
comparisons, via rank aggregation, function learning and unfolding
optimization."""

__version__ = "0.1.0"

from .core import (
    ComparisonTensor,
    ConfigError,
    DistanceMatrix,
    GroundTruthUnavailable,
    InputError,
    OrdinalUnlocError,
    ProximityMatrix,
    SensorField,
    pairwise_distances,
    read_sensor_field,
)
from .funclearn import LinearMap, estimate_distances, fit_linear_map
from .ordinal import (
    ComparisonNoiseModel,
    SignalMatrix,
    tensor_from_distances,
    tensor_from_signals,
)
from .pipeline import localize_from_tensor
from .rank import aggregate_proximities, enumerate_pairs, incidence_matrix, ls_rank
from .unfold import (
    LocalizationResult,
    SolverOptions,
    localize_all,
    unfolding_cost,
    unfolding_gradient,
    unloc_localize,
)

__all__ = [
    "ComparisonNoiseModel",
    "ComparisonTensor",
    "ConfigError",
    "DistanceMatrix",
    "GroundTruthUnavailable",
    "InputError",
    "LinearMap",
    "LocalizationResult",
    "OrdinalUnlocError",
    "ProximityMatrix",
    "SensorField",
    "SignalMatrix",
    "SolverOptions",
    "aggregate_proximities",
    "enumerate_pairs",
    "estimate_distances",
    "fit_linear_map",
    "incidence_matrix",
    "localize_all",
    "localize_from_tensor",
    "ls_rank",
    "pairwise_distances",
    "read_sensor_field",
    "tensor_from_distances",
    "tensor_from_signals",
    "unfolding_cost",
    "unfolding_gradient",
    "unloc_localize",
]
