"""Tilt sensitivity of the two-axis compass.

The paper's compass measures "the magnetic field in a horizontal plane"
(§2) — which silently assumes the watch *is* horizontal.  A wrist-worn
compass rarely is, and because the geomagnetic field has a large vertical
component at mid latitudes (inclination ~69° at the design site,
Enschede), tilting the sensor plane leaks vertical field into the
horizontal axes and skews the arctangent.

This module provides the exact geometry: the field vector seen by the
body-fixed x (forward) and y (right) sensors for arbitrary heading,
pitch and roll, plus the classic small-angle error estimate

    Δψ ≈ tan(I) · (pitch·sin ψ − roll·cos ψ)

with ``I`` the inclination and ``ψ`` the heading.  Bench TILT1 sweeps it;
the result is the quantitative case for the tilt compensation a
follow-on design would need (the paper's "future work" horizon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigurationError
from ..physics.earth_field import FieldVector
from ..units import (
    angular_difference_deg,
    heading_from_components_deg,
    tesla_to_a_per_m,
)


@dataclass(frozen=True)
class Attitude:
    """Orientation of the compass body.

    Attributes
    ----------
    heading_deg:
        Yaw, degrees clockwise from magnetic north.
    pitch_deg:
        Nose-up rotation about the body y axis [degrees].
    roll_deg:
        Right-side-down rotation about the body x axis [degrees].
    """

    heading_deg: float
    pitch_deg: float = 0.0
    roll_deg: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 < self.pitch_deg < 90.0:
            raise ConfigurationError("pitch must be within ±90°")
        if not -180.0 <= self.roll_deg <= 180.0:
            raise ConfigurationError("roll must be within ±180°")


def body_field_components(
    field: FieldVector, attitude: Attitude
) -> Tuple[float, float, float]:
    """Field components in the body frame [T].

    Standard aerospace rotation sequence NED → body: yaw ψ about down,
    pitch θ about the intermediate y axis, roll φ about the body x axis.
    """
    psi = math.radians(attitude.heading_deg)
    theta = math.radians(attitude.pitch_deg)
    phi = math.radians(attitude.roll_deg)

    # Yaw.
    bx1 = field.north * math.cos(psi) + field.east * math.sin(psi)
    by1 = -field.north * math.sin(psi) + field.east * math.cos(psi)
    bz1 = field.down
    # Pitch.
    bx2 = bx1 * math.cos(theta) - bz1 * math.sin(theta)
    by2 = by1
    bz2 = bx1 * math.sin(theta) + bz1 * math.cos(theta)
    # Roll.
    bx3 = bx2
    by3 = by2 * math.cos(phi) + bz2 * math.sin(phi)
    bz3 = -by2 * math.sin(phi) + bz2 * math.cos(phi)
    return bx3, by3, bz3


def tilted_axis_fields(
    field: FieldVector, attitude: Attitude
) -> Tuple[float, float]:
    """What the x and y fluxgates actually sense, in A/m.

    The sensors lie in the (tilted) body xy plane; with the conventions
    of :mod:`repro.sensors.pair` the y sensor reads the *negative* body-y
    field when the compass faces the field (so that a level compass
    reproduces ``h_y = −|H|·sin ψ``).
    """
    bx, by, _ = body_field_components(field, attitude)
    return tesla_to_a_per_m(bx), tesla_to_a_per_m(by)


def apparent_heading_deg(field: FieldVector, attitude: Attitude) -> float:
    """The heading an ideal (noise-free) 2-axis compass would indicate."""
    return heading_from_components_deg(*tilted_axis_fields(field, attitude))


def tilt_error_deg(field: FieldVector, attitude: Attitude) -> float:
    """Signed heading error caused *by the tilt alone* [degrees].

    Compared against the same compass held level (not against the yaw
    angle): a field with non-zero declination makes even a level compass
    read ``ψ − declination``, and that offset is navigation, not error.
    """
    apparent = apparent_heading_deg(field, attitude)
    level = apparent_heading_deg(
        field, Attitude(attitude.heading_deg, 0.0, 0.0)
    )
    return angular_difference_deg(apparent, level)


def small_angle_error_deg(
    inclination_deg: float,
    heading_deg: float,
    pitch_deg: float,
    roll_deg: float,
) -> float:
    """First-order tilt-error estimate ``tan(I)·(θ·sinψ − φ·cosψ)``.

    Valid for tilts of a few degrees; used as the analytic oracle in the
    tilt tests and to size how much tilt the 1° budget tolerates.
    """
    if not -90.0 < inclination_deg < 90.0:
        raise ConfigurationError("inclination must be within ±90°")
    tan_i = math.tan(math.radians(inclination_deg))
    psi = math.radians(heading_deg)
    return tan_i * (
        pitch_deg * math.sin(psi) - roll_deg * math.cos(psi)
    )


def max_tolerable_tilt_deg(
    inclination_deg: float, heading_budget_deg: float = 1.0
) -> float:
    """Largest tilt that keeps the worst-heading error within budget.

    The worst heading makes the bracket in the small-angle formula equal
    to the full tilt, so the bound is ``budget / tan(I)``.
    """
    if heading_budget_deg <= 0.0:
        raise ConfigurationError("budget must be positive")
    tan_i = abs(math.tan(math.radians(inclination_deg)))
    if tan_i < 1e-12:
        return float("inf")
    return heading_budget_deg / tan_i
