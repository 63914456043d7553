"""The RSS power law that generates the received powers of the Monte-Carlo
trials' rss kind.  The trials invert it, and draw their Gaussian arrival
times, inline (``bench._rss_draw``, ``bench._toa_draw``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError

# random placements can collide; powers are generated at no less than this
MIN_LINK_DISTANCE = 1e-6


@dataclass(frozen=True)
class RssModel:
    """Received power P_R = P_T * alpha * d^-G, with a per-link path-loss
    exponent G drawn uniformly on [exponent_low, exponent_high]."""

    transmit_power: float = 1.0
    hardware_gain: float = 1.0
    exponent_low: float = 2.0
    exponent_high: float = 6.0

    def __post_init__(self):
        if not self.transmit_power > 0:
            raise InputError("transmit power must be positive")
        if not self.hardware_gain > 0:
            raise InputError("hardware gain must be positive")
        if not 2.0 <= self.exponent_low <= self.exponent_high:
            raise InputError(
                f"need 2 <= a <= b, got a={self.exponent_low}, b={self.exponent_high}"
            )


def rss_power(model: RssModel, d, exponent):
    """Power received over a link of length d with path-loss exponent G."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise InputError("link distance must be positive for power generation")
    return model.transmit_power * model.hardware_gain * d ** (-np.asarray(exponent, dtype=float))
