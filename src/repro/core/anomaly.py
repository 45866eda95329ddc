"""Magnetic-disturbance detection — trust management for the heading.

The arctangent makes the compass insensitive to the field *magnitude*
(§4), but the magnitude is still measured for free by the counter pair
(``|count| = ticks·|H|/Ha``), and it is the best available tell that the
heading should not be trusted:

* magnitude far **below** the terrestrial band → shielding, or the
  vertical-field-only situation near the magnetic poles,
* magnitude far **above** it → a magnet, a car body, a steel desk — the
  classic compass-watch failure, where the *heading* still looks
  perfectly plausible,
* a magnitude **jump** between consecutive measurements while the
  heading also jumps → a local disturbance moved, not the user.

Real compass watches (and every modern phone compass) implement exactly
this check; the paper's system has all the information needed and this
module supplies the logic.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from ..errors import ConfigurationError
from ..units import (
    EARTH_FIELD_MAX_T,
    EARTH_FIELD_MIN_T,
    angular_difference_deg,
)
from .heading import HeadingMeasurement


class FieldVerdict(enum.Enum):
    """Trust classification of one measurement."""

    OK = "ok"
    TOO_WEAK = "too-weak"
    TOO_STRONG = "too-strong"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class DetectorSettings:
    """Disturbance-detector thresholds.

    Attributes
    ----------
    min_field_t, max_field_t:
        Accepted horizontal-magnitude band [T].  Defaults: the paper's
        worldwide 25…65 µT widened by −50 %/+30 % (12.5…84.5 µT) for
        horizontal-component variation with latitude.
    max_magnitude_jump:
        Relative magnitude change between consecutive measurements above
        which (combined with a heading jump) the reading is flagged
        unstable.
    max_heading_jump_deg:
        Heading change that counts as a jump for the stability check
        (fixed: ``init=False``).
    history_limit:
        Maximum number of :class:`AnomalyReport` records retained in
        :attr:`FieldAnomalyDetector.history`.  A mission-length stream
        checks a measurement every step; the reports are diagnostics,
        not state, so only the most recent window is kept.  Trust
        statistics (:meth:`FieldAnomalyDetector.trusted_fraction`) are
        maintained as exact rolling counters over *every* measurement
        ever checked, so bounding the window does not change them.
    """

    min_field_t: float = EARTH_FIELD_MIN_T * 0.5
    max_field_t: float = EARTH_FIELD_MAX_T * 1.3
    max_magnitude_jump: float = 0.25
    max_heading_jump_deg: float = field(default=30.0, init=False)
    history_limit: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.min_field_t < self.max_field_t:
            raise ConfigurationError("field band must satisfy 0 < min < max")
        if self.max_magnitude_jump <= 0.0:
            raise ConfigurationError("max_magnitude_jump must be positive")
        if self.history_limit < 1:
            raise ConfigurationError("history_limit must be >= 1")


@dataclass(frozen=True)
class AnomalyReport:
    """One classified measurement."""

    verdict: FieldVerdict
    measurement: HeadingMeasurement
    detail: str

    @property
    def trusted(self) -> bool:
        return self.verdict is FieldVerdict.OK


class FieldAnomalyDetector:
    """Stateful trust filter over a stream of heading measurements."""

    def __init__(self, settings: DetectorSettings = DetectorSettings()):
        self.settings = settings
        self._previous: Optional[HeadingMeasurement] = None
        #: Bounded diagnostic window (most recent ``history_limit``
        #: reports).  Exact lifetime statistics live in
        #: :attr:`checked_count` / :attr:`trusted_count`.
        self.history: Deque[AnomalyReport] = deque(
            maxlen=settings.history_limit
        )
        #: Total measurements ever checked (not bounded by the window).
        self.checked_count: int = 0
        #: Total measurements ever classified OK.
        self.trusted_count: int = 0

    def reset(self) -> None:
        self._previous = None
        self.history = deque(maxlen=self.settings.history_limit)
        self.checked_count = 0
        self.trusted_count = 0

    def check(self, measurement: HeadingMeasurement) -> AnomalyReport:
        """Classify one measurement and update the stream state."""
        s = self.settings
        field_t = measurement.field_estimate_tesla
        if field_t < s.min_field_t:
            report = AnomalyReport(
                FieldVerdict.TOO_WEAK,
                measurement,
                f"|H| = {field_t * 1e6:.1f} µT below the "
                f"{s.min_field_t * 1e6:.1f} µT floor (shielding or "
                "near-vertical field)",
            )
        elif field_t > s.max_field_t:
            report = AnomalyReport(
                FieldVerdict.TOO_STRONG,
                measurement,
                f"|H| = {field_t * 1e6:.1f} µT above the "
                f"{s.max_field_t * 1e6:.1f} µT ceiling (magnetised object "
                "nearby)",
            )
        elif self._previous is not None and self._is_jump(measurement):
            report = AnomalyReport(
                FieldVerdict.UNSTABLE,
                measurement,
                "field magnitude and heading jumped together: local "
                "disturbance in motion",
            )
        else:
            report = AnomalyReport(FieldVerdict.OK, measurement, "")
        self._previous = measurement
        self.history.append(report)
        self.checked_count += 1
        if report.trusted:
            self.trusted_count += 1
        return report

    def _is_jump(self, measurement: HeadingMeasurement) -> bool:
        s = self.settings
        previous = self._previous
        prev_field = previous.field_estimate_a_per_m
        if prev_field <= 0.0:
            return False
        magnitude_jump = (
            abs(measurement.field_estimate_a_per_m - prev_field) / prev_field
        )
        heading_jump = abs(
            angular_difference_deg(
                measurement.heading_deg, previous.heading_deg
            )
        )
        return (
            magnitude_jump > s.max_magnitude_jump
            and heading_jump > s.max_heading_jump_deg
        )

    def trusted_fraction(self) -> float:
        """Fraction of checked measurements classified OK.

        Exact over the full stream (rolling counters), even after the
        bounded :attr:`history` window has discarded old reports.
        """
        if not self.checked_count:
            raise ConfigurationError("no measurements checked yet")
        return self.trusted_count / self.checked_count
