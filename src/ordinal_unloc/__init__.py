"""Ordinal UNLOC: target localization from one-bit ordinal distance
comparisons, via rank aggregation, function learning and unfolding
optimization."""

__version__ = "0.1.0"

from .core import ConfigError, InputError, OrdinalUnlocError, SensorField, read_sensor_field
from .funclearn import estimate_distances_stack
from .ordinal import distance_row_sums, signal_row_sums
from .rank import proximity_scores
from .unfold import solve_columns

__all__ = [
    "ConfigError",
    "InputError",
    "OrdinalUnlocError",
    "SensorField",
    "__version__",
    "distance_row_sums",
    "estimate_distances_stack",
    "proximity_scores",
    "read_sensor_field",
    "signal_row_sums",
    "solve_columns",
]
