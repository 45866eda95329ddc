"""Accuracy statistics: the numbers behind the paper's 1° claim.

"Simulations indicate that an accuracy within one degree is possible"
(§6).  The sweeps that produce the errors — full heading sweeps,
field-magnitude sweeps (the §4 insensitivity claim) and Monte-Carlo
runs over noise seeds and sensor imperfections — are
:class:`repro.batch.BatchCompass` methods; this module summarises their
errors and states the counter's quantisation floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import trust
from ..errors import ConfigurationError
from .heading import HeadingMeasurement


@dataclass(frozen=True)
class ErrorStats:
    """Summary statistics of a set of heading errors [degrees]."""

    max_error: float
    rms_error: float
    n_samples: int

    @classmethod
    def from_errors(cls, errors: Sequence[float]) -> "ErrorStats":
        arr = np.asarray(errors, dtype=float)
        if arr.size == 0:
            raise ConfigurationError("no errors to summarise")
        return cls(
            max_error=float(np.max(np.abs(arr))),
            rms_error=float(np.sqrt(np.mean(arr**2))),
            n_samples=int(arr.size),
        )

    @classmethod
    def from_sweep(
        cls,
        headings_deg: Sequence[float],
        measurements: Sequence[HeadingMeasurement],
    ) -> "ErrorStats":
        """Statistics of a sweep's measurements against their true headings."""
        return cls.from_errors(
            [m.error_against(h) for h, m in zip(headings_deg, measurements)]
        )

    @property
    def in_spec(self) -> bool:
        """Whether the worst error meets the 1° spec (:func:`repro.trust.in_spec`)."""
        return trust.in_spec(self.max_error)


def quantisation_floor_deg(count_full_scale: int) -> float:
    """Heading error floor from counter quantisation alone [degrees].

    A one-count step on one axis at the worst heading moves the arctangent
    by about ``degrees(1/full_scale)``; headline budgets must stay above
    this floor or more counting periods are needed (bench PREC1).
    """
    if count_full_scale < 1:
        raise ConfigurationError("full scale must be at least one count")
    return float(np.degrees(1.0 / count_full_scale))
