"""Heading types and angle utilities for the compass public API."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ..errors import ConfigurationError
from ..units import MU_0, heading_error_deg, wrap_degrees

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .health import HealthReport

#: The sixteen compass points, clockwise from north.
COMPASS_POINTS_16 = (
    "N", "NNE", "NE", "ENE",
    "E", "ESE", "SE", "SSE",
    "S", "SSW", "SW", "WSW",
    "W", "WNW", "NW", "NNW",
)


def compass_point(heading_deg: float, points: int = 16) -> str:
    """Name of the compass point nearest to a heading.

    ``points`` may be 4, 8 or 16.
    """
    if points not in (4, 8, 16):
        raise ConfigurationError("points must be 4, 8 or 16")
    stride = 16 // points
    sector = 360.0 / points
    wrapped = wrap_degrees(heading_deg)
    index = int((wrapped + sector / 2.0) // sector) % points
    return COMPASS_POINTS_16[index * stride]


@dataclass(frozen=True)
class HeadingMeasurement:
    """The result of one complete compass measurement.

    Attributes
    ----------
    heading_deg:
        Measured heading, degrees clockwise from magnetic north, [0, 360).
    x_count, y_count:
        The up-down counter integers behind the heading.
    duty_x, duty_y:
        Detector duty cycles of the two channels.
    measurement_time_s:
        Active time the measurement took (settle + count + compute) [s].
    cordic_cycles:
        Clock cycles the arctangent used (the paper's "only 8 cycles").
    field_estimate_a_per_m:
        Horizontal field magnitude recovered from the counter pair
        [A/m] — free information the arctangent discards, used by the
        disturbance detector (:mod:`repro.core.anomaly`).
    health:
        Verdict of the runtime :class:`~repro.core.health.
        HealthSupervisor`: ``None`` when supervision is disabled, an
        ``ok`` report on a fully-trusted measurement, a ``degraded``
        report (flags, fallback path, staleness) otherwise.
    """

    heading_deg: float
    x_count: int
    y_count: int
    duty_x: float
    duty_y: float
    measurement_time_s: float
    cordic_cycles: int
    field_estimate_a_per_m: float = 0.0
    health: Optional["HealthReport"] = None

    @property
    def degraded(self) -> bool:
        """True when the supervisor flagged this measurement degraded."""
        return self.health is not None and self.health.degraded

    @property
    def authoritative(self) -> bool:
        """True when the heading is served as trusted (not degraded)."""
        return not self.degraded

    @property
    def field_estimate_tesla(self) -> float:
        """The magnitude estimate as a free-space flux density [T]."""
        return self.field_estimate_a_per_m * MU_0

    @property
    def cardinal(self) -> str:
        """Nearest of the 16 compass points."""
        return compass_point(self.heading_deg)

    def error_against(self, true_heading_deg: float) -> float:
        """Absolute heading error against a reference [degrees]."""
        return heading_error_deg(self.heading_deg, true_heading_deg)


def headings_evenly_spaced(n: int, start_deg: float = 0.0) -> Tuple[float, ...]:
    """``n`` headings uniformly covering the circle (for sweeps)."""
    if n < 1:
        raise ConfigurationError("need at least one heading")
    return tuple(wrap_degrees(start_deg + i * 360.0 / n) for i in range(n))


def mean_heading_deg(headings: Tuple[float, ...]) -> float:
    """Circular mean of headings [degrees in [0, 360)].

    Needed wherever headings are averaged: the arithmetic mean of 359° and
    1° is 180°, the circular mean is 0°.
    """
    if not headings:
        raise ConfigurationError("cannot average zero headings")
    s = sum(math.sin(math.radians(h)) for h in headings)
    c = sum(math.cos(math.radians(h)) for h in headings)
    if abs(s) < 1e-12 and abs(c) < 1e-12:
        raise ConfigurationError("headings are uniformly opposed; mean undefined")
    return wrap_degrees(math.degrees(math.atan2(s, c)))
