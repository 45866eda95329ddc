"""The :class:`BatchScene` seam — "one scene × many elements".

PR 1's batch engine was shaped as "many headings × one device": the
sweep APIs accepted heading lists and buried the conversion to axis
fields inside each caller.  Every bulk consumer since (the factory's
calibration turn-table, the fleet's batchable backend, the scenario
runner's per-temperature plants, and now the sensor array) wants the
opposite factoring: *one* frozen description of the magnetic scene that
any number of measuring elements can be driven through.

:class:`BatchScene` is that description: an ordered, immutable list of
axis-field rows [A/m] — exactly the inputs
:meth:`repro.core.compass.IntegratedCompass.measure_components`
consumes.  Constructors cover the three ways scenes arise in practice
(raw components, heading sweeps through a sensor pair, magnitude ×
heading grids).

Bit-identity contract: building a scene with :meth:`from_headings` and
measuring it via :meth:`repro.batch.BatchCompass.measure_scene` is
bit-identical to the scalar ``measure_heading`` loop (and to the
pre-seam ``sweep_headings``), because the heading → axis-field
conversion is the very same ``axis_fields_from_tesla`` arithmetic in
the same row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..sensors.pair import OrthogonalSensorPair


@dataclass(frozen=True)
class BatchScene:
    """One frozen magnetic scene: N axis-field rows [A/m].

    Row ``i`` is the ``(h_x, h_y)`` pair element ``i`` (or sweep point
    ``i``) measures; the scene itself is device-agnostic — any compass,
    replica or array element can be driven through the same record.
    """

    h_x: Tuple[float, ...]
    h_y: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.h_x) != len(self.h_y):
            raise ConfigurationError(
                f"scene rows must pair up: {len(self.h_x)} h_x values "
                f"vs {len(self.h_y)} h_y values"
            )
        for name, values in (("h_x", self.h_x), ("h_y", self.h_y)):
            for value in values:
                if not np.isfinite(value):
                    raise ConfigurationError(
                        f"scene {name} contains a non-finite value: {value!r}"
                    )

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_components(
        cls, h_x: Sequence[float], h_y: Sequence[float]
    ) -> "BatchScene":
        """A scene from explicit axis-field rows [A/m]."""
        x = np.asarray(h_x, dtype=float)
        y = np.asarray(h_y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ConfigurationError(
                "h_x and h_y must be 1-D sequences of equal length"
            )
        return cls(
            h_x=tuple(float(v) for v in x),
            h_y=tuple(float(v) for v in y),
        )

    @classmethod
    def from_headings(
        cls,
        sensors: OrthogonalSensorPair,
        headings_deg: Sequence[float],
        field_magnitude_t: float = 50.0e-6,
    ) -> "BatchScene":
        """A heading sweep rendered through ``sensors``' imperfections.

        Bit-identical to what the scalar ``measure_heading`` loop feeds
        ``measure_components`` at each heading, in order.
        """
        heading_array = np.asarray(headings_deg, dtype=float)
        if heading_array.ndim != 1:
            raise ConfigurationError(
                "headings_deg must be a 1-D sequence of angles"
            )
        h_x: List[float] = []
        h_y: List[float] = []
        for heading in heading_array:
            x, y = sensors.axis_fields_from_tesla(
                field_magnitude_t, float(heading)
            )
            h_x.append(x)
            h_y.append(y)
        return cls(h_x=tuple(h_x), h_y=tuple(h_y))

    @classmethod
    def from_magnitudes(
        cls,
        sensors: OrthogonalSensorPair,
        magnitudes_t: Sequence[float],
        headings_deg: Sequence[float],
    ) -> "BatchScene":
        """A magnitude-major magnitude × heading grid (scalar loop order)."""
        if len(magnitudes_t) == 0:
            raise ConfigurationError("need at least one magnitude")
        h_x: List[float] = []
        h_y: List[float] = []
        for magnitude in magnitudes_t:
            for heading in headings_deg:
                x, y = sensors.axis_fields_from_tesla(
                    float(magnitude), float(heading)
                )
                h_x.append(x)
                h_y.append(y)
        return cls(h_x=tuple(h_x), h_y=tuple(h_y))

    # -- access ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.h_x)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The rows as the ``(h_x, h_y)`` float arrays the engine wants."""
        return (
            np.asarray(self.h_x, dtype=float),
            np.asarray(self.h_y, dtype=float),
        )


__all__ = ["BatchScene"]
