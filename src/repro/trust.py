"""The trust contract: is a served heading in spec, and was it trusted?

The paper promises a heading "to 1° accuracy" (§2); a heading served as
trusted (every answer type's ``authoritative``) more than
:data:`repro.units.TARGET_ACCURACY_DEG` off the truth is
**silent-wrong**, and this module is the one place that decides it.
It owns the spec as well as the rule: no caller passes a tolerance.  A
refusal is a typed :class:`~repro.errors.ReproError` raise, which
harnesses record as :attr:`Outcome.DETECTED`.
"""

from __future__ import annotations

import enum

from .units import TARGET_ACCURACY_DEG


class Outcome(enum.Enum):
    """Classification of one served answer (or one campaign cell)."""

    DETECTED = "detected"
    DEGRADED = "degraded"
    BENIGN = "benign"
    SILENT_WRONG = "silent-wrong"


def in_spec(error_deg: float) -> bool:
    """True when an absolute heading error meets the 1° accuracy spec."""
    return error_deg <= TARGET_ACCURACY_DEG


def served_outcome(error_deg: float, authoritative: bool) -> Outcome:
    """Classify one served heading by its error and its trust label.

    A non-authoritative answer is honest about itself whatever its
    error (:attr:`Outcome.DEGRADED`); an authoritative one is
    :attr:`Outcome.BENIGN` in spec and :attr:`Outcome.SILENT_WRONG`
    out of it.
    """
    if not authoritative:
        return Outcome.DEGRADED
    if in_spec(error_deg):
        return Outcome.BENIGN
    return Outcome.SILENT_WRONG


__all__ = ["Outcome", "in_spec", "served_outcome"]
