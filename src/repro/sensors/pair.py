"""The orthogonal two-sensor arrangement of the compass (§2, Figure 1).

"The electronic compass functions by measuring the magnetic field in a
horizontal plane in two perpendicular directions."  This module models the
*geometry* of that arrangement: how a horizontal field of given magnitude
and direction projects onto the x (forward) and y (right) sensor axes as
the compass body rotates, including the mechanical and electrical
imperfections a single-MCM assembly actually has:

* axis misalignment (the two sensors are not exactly 90° apart),
* gain mismatch between the two channels,
* per-axis field offsets (e.g. magnetised package, "hard iron").

These imperfections are what :mod:`repro.core.calibration` estimates and
removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigurationError
from ..units import heading_from_components_deg, tesla_to_a_per_m
from .fluxgate import FluxgateSensor
from .parameters import FluxgateParameters


@dataclass(frozen=True)
class PairImperfections:
    """Deviations of the sensor pair from an ideal orthogonal set.

    Attributes
    ----------
    misalignment_deg:
        Deviation of the y sensor from 90° relative to x [degrees].
    gain_mismatch:
        Relative gain error of the y channel (0.02 = +2 %).
    offset_x, offset_y:
        Additive field offsets on each axis [A/m].
    """

    misalignment_deg: float = 0.0
    gain_mismatch: float = 0.0
    offset_x: float = 0.0
    offset_y: float = 0.0

    def __post_init__(self) -> None:
        if abs(self.misalignment_deg) >= 45.0:
            raise ConfigurationError("misalignment beyond ±45° is not a compass")
        if self.gain_mismatch <= -1.0:
            raise ConfigurationError("gain mismatch must be > -100 %")


IDEAL_PAIR = PairImperfections()


class OrthogonalSensorPair:
    """Two fluxgate sensors mounted (nominally) perpendicular on the MCM.

    The x sensor points along the compass body's forward axis; heading 0°
    means forward = magnetic north, so the x sensor sees the full
    horizontal field and the y sensor sees none.
    """

    def __init__(
        self,
        params: FluxgateParameters,
        core_model: str = "tanh",
        imperfections: PairImperfections = IDEAL_PAIR,
    ):
        self.sensor_x = FluxgateSensor(params, core_model)
        self.sensor_y = FluxgateSensor(params, core_model)
        self.imperfections = imperfections

    @property
    def params(self) -> FluxgateParameters:
        return self.sensor_x.params

    def axis_fields(
        self, field_magnitude_a_per_m: float, heading_deg: float
    ) -> Tuple[float, float]:
        """Field components seen by the x and y sensors [A/m].

        Parameters
        ----------
        field_magnitude_a_per_m:
            Horizontal geomagnetic field strength [A/m].
        heading_deg:
            True heading of the compass body, degrees clockwise from
            magnetic north.

        Returns
        -------
        (h_x, h_y):
            With an ideal pair at heading ``θ``:
            ``h_x = |H|·cos θ`` and ``h_y = -|H|·sin θ``, so that
            ``atan2(-h_y, h_x)`` recovers ``θ``.
        """
        if field_magnitude_a_per_m < 0.0:
            raise ConfigurationError("field magnitude must be non-negative")
        imp = self.imperfections
        theta = math.radians(heading_deg)
        h_x = field_magnitude_a_per_m * math.cos(theta) + imp.offset_x
        # The y sensor is rotated 90° + misalignment from x.
        y_axis_angle = math.radians(90.0 + imp.misalignment_deg)
        h_y_ideal = field_magnitude_a_per_m * math.cos(theta + y_axis_angle)
        h_y = h_y_ideal * (1.0 + imp.gain_mismatch) + imp.offset_y
        return h_x, h_y

    def axis_fields_from_tesla(
        self, field_magnitude_t: float, heading_deg: float
    ) -> Tuple[float, float]:
        """Same as :meth:`axis_fields` but with the magnitude in tesla."""
        return self.axis_fields(tesla_to_a_per_m(field_magnitude_t), heading_deg)

    @staticmethod
    def heading_from_components(h_x: float, h_y: float) -> float:
        """Ideal (floating-point) heading from the two components [deg].

        The reference computation the paper's digital CORDIC approximates:
        "The angle to the magnetic north is calculated by taking the
        arctangent of the division of the two measurants" (§2).
        """
        return heading_from_components_deg(h_x, h_y)
