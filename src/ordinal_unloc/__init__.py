"""Ordinal UNLOC: target localization from one-bit ordinal distance
comparisons, via rank aggregation, function learning and unfolding
optimization."""

__version__ = "0.1.0"

from .core import ConfigError, InputError, OrdinalUnlocError, SensorField, read_sensor_field
from .ordinal import distance_row_sums, signal_row_sums
from .pipeline import localize

__all__ = [
    "ConfigError",
    "InputError",
    "OrdinalUnlocError",
    "SensorField",
    "__version__",
    "distance_row_sums",
    "localize",
    "read_sensor_field",
    "signal_row_sums",
]
