"""Declination handling: converting compass headings to geographic ones.

The compass reads *magnetic* headings.  For navigation against a map the
user applies the local declination — which this module derives from the
same dipole field model the physics package provides, with a
precomputed lookup grid for the fast path (a real device would carry
exactly such a table in ROM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..physics.earth_field import DipoleEarthField
from ..units import heading_error_deg, wrap_degrees


def magnetic_to_geographic(magnetic_heading_deg: float, declination_deg: float) -> float:
    """Geographic (true) heading from a compass reading.

    Declination is east-positive: true = magnetic + declination.
    """
    return wrap_degrees(magnetic_heading_deg + declination_deg)


def geographic_to_magnetic(true_heading_deg: float, declination_deg: float) -> float:
    """The compass heading to steer for a desired true heading."""
    return wrap_degrees(true_heading_deg - declination_deg)


@dataclass(frozen=True)
class GridPoint:
    """One declination-table entry."""

    lat_deg: float
    lon_deg: float
    declination_deg: float


class DeclinationTable:
    """A ROM-style declination lookup grid with bilinear interpolation.

    Parameters
    ----------
    lat_step_deg, lon_step_deg:
        Grid pitch.  A 10°×15° grid (the default) keeps interpolation
        error under ~1° at mid latitudes against the generating model —
        checked by the tests.
    lat_limit_deg:
        Highest |latitude| tabulated; declination is ill-conditioned at
        the geomagnetic poles and real tables stop short of them.
    """

    def __init__(
        self,
        lat_step_deg: float = 10.0,
        lon_step_deg: float = 15.0,
        lat_limit_deg: float = 60.0,
        model: Optional[DipoleEarthField] = None,
    ):
        if lat_step_deg <= 0.0 or lon_step_deg <= 0.0:
            raise ConfigurationError("grid steps must be positive")
        if not 0.0 < lat_limit_deg <= 80.0:
            raise ConfigurationError("latitude limit must be in (0, 80]")
        self.lat_step = lat_step_deg
        self.lon_step = lon_step_deg
        self.lat_limit = lat_limit_deg
        self.model = model if model is not None else DipoleEarthField()

        self._lats = self._axis(-lat_limit_deg, lat_limit_deg, lat_step_deg)
        self._lons = self._axis(-180.0, 180.0, lon_step_deg)
        self._table: List[List[float]] = [
            [
                self.model.field_at(lat, lon).declination_deg
                for lon in self._lons
            ]
            for lat in self._lats
        ]

    @staticmethod
    def _axis(start: float, stop: float, step: float) -> List[float]:
        count = int(round((stop - start) / step)) + 1
        return [start + i * step for i in range(count)]

    @property
    def entries(self) -> int:
        """Table size — the ROM words a device would carry."""
        return len(self._lats) * len(self._lons)

    def _bracket(self, value: float, axis: List[float]) -> Tuple[int, float]:
        if value <= axis[0]:
            return 0, 0.0
        if value >= axis[-1]:
            return len(axis) - 2, 1.0
        for i in range(len(axis) - 1):
            if axis[i] <= value <= axis[i + 1]:
                frac = (value - axis[i]) / (axis[i + 1] - axis[i])
                return i, frac
        raise ConfigurationError("axis bracketing failed")  # pragma: no cover

    def lookup(self, lat_deg: float, lon_deg: float) -> float:
        """Bilinearly interpolated declination [deg, east positive].

        Latitudes beyond the table limit clamp to the edge rows (with the
        accuracy caveat real tables share); longitudes wrap.
        """
        if not -90.0 <= lat_deg <= 90.0:
            raise ConfigurationError(f"latitude {lat_deg} out of range")
        lon = math.fmod(lon_deg + 180.0, 360.0)
        if lon < 0.0:
            lon += 360.0
        lon -= 180.0
        i, fy = self._bracket(lat_deg, self._lats)
        j, fx = self._bracket(lon, self._lons)

        # Interpolate on the unit circle to survive the ±180° wrap of
        # declination values near the poles.
        def mix(a: float, b: float, f: float) -> float:
            ax, ay = math.cos(math.radians(a)), math.sin(math.radians(a))
            bx, by = math.cos(math.radians(b)), math.sin(math.radians(b))
            x = ax + f * (bx - ax)
            y = ay + f * (by - ay)
            return math.degrees(math.atan2(y, x))

        top = mix(self._table[i][j], self._table[i][j + 1], fx)
        bottom = mix(self._table[i + 1][j], self._table[i + 1][j + 1], fx)
        return mix(top, bottom, fy)

    def worst_error_deg(self, n_samples: int = 200, seed: int = 0) -> float:
        """Interpolation error against the generating model, sampled."""
        import numpy as np

        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_samples):
            lat = float(rng.uniform(-self.lat_limit, self.lat_limit))
            lon = float(rng.uniform(-180.0, 180.0))
            exact = self.model.field_at(lat, lon).declination_deg
            approx = self.lookup(lat, lon)
            worst = max(worst, heading_error_deg(approx, exact))
        return worst
