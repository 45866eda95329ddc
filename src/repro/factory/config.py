"""The lot DSL: who gets manufactured, with what defects, tested how.

Two frozen dataclasses configure a production run end to end:

* :class:`DefectDistribution` — the *process*: what fraction of minted
  units carry a defect, how often a defective unit carries more than
  one, how the defects spread over the fault-registry layers, and which
  severity each drawn fault gets.
* :class:`LotConfig` — the *lot and its test program*: lot size, mint
  seed, the staged program (any permutation/subset of
  :data:`STAGE_NAMES`), the per-stage knobs (calibration grid size,
  accuracy gate), and the field-audit oracle that decides whether
  a defective unit that slipped through would actually serve a
  silent-wrong heading in the field.

Both are pure data: the whole lot — defects, verdicts, report — is a
deterministic function of ``(seed, config)``, which is what makes the
golden-lot corpus and the CI escape ratchet possible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Tuple

from ..errors import ConfigurationError
from ..units import TARGET_ACCURACY_DEG

#: The canonical stage order: interconnect boundary scan on the bare
#: assembly, power-on BIST through the health supervisor, the
#: full-circle field calibration sweep, then the environment screen
#: (the ENV_SCREEN mission through the compensation chain — the stage
#: that sees defects living outside the signal chain: telemetry, the
#: stored calibration table, the ambient field).
STAGE_NAMES = ("btest", "bist", "calibration", "env")

#: Severity laws :func:`~repro.factory.defects.mint_units` understands.
SEVERITY_LAWS = ("uniform", "worst", "mild")

_VALID_LAYERS = ("sensor", "analog", "digital", "scan", "environment")


@dataclass(frozen=True)
class DefectDistribution:
    """Parameterized process-defect distribution over the fault registry.

    Attributes
    ----------
    rate:
        Probability a minted unit is defective at all (process defect
        density folded to per-unit yield loss).
    multi_fault_rate:
        Given a defective unit, the probability each *additional* fault
        is added, up to :attr:`max_faults_per_unit` (geometric tail —
        clustered defects are real but rare).
    max_faults_per_unit:
        Hard cap on faults per unit (fixed: ``init=False``).
    layer_mix:
        Relative weights per fault-registry layer; a drawn fault first
        picks a layer by weight, then a registered fault uniformly
        inside it.  Layers with weight 0 can simply be omitted.
    severity_law:
        ``"uniform"`` draws uniformly from the fault's registered
        severity grid; ``"worst"`` always takes the highest severity,
        ``"mild"`` the lowest.
    """

    rate: float = 0.06
    multi_fault_rate: float = 0.10
    max_faults_per_unit: int = field(default=2, init=False)
    layer_mix: Tuple[Tuple[str, float], ...] = (
        ("sensor", 3.0),
        ("analog", 2.0),
        ("digital", 2.0),
        ("scan", 3.0),
        ("environment", 2.0),
    )
    severity_law: str = "uniform"

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"defect rate {self.rate} not in [0, 1]")
        if not 0.0 <= self.multi_fault_rate <= 1.0:
            raise ConfigurationError(
                f"multi-fault rate {self.multi_fault_rate} not in [0, 1]"
            )
        if not self.layer_mix:
            raise ConfigurationError("layer_mix cannot be empty")
        seen = set()
        for layer, weight in self.layer_mix:
            if layer not in _VALID_LAYERS:
                raise ConfigurationError(f"unknown fault layer {layer!r}")
            if layer in seen:
                raise ConfigurationError(f"layer {layer!r} listed twice")
            if weight <= 0.0:
                raise ConfigurationError(
                    f"layer {layer!r} weight must be positive (omit it instead)"
                )
            seen.add(layer)
        if self.severity_law not in SEVERITY_LAWS:
            raise ConfigurationError(
                f"unknown severity law {self.severity_law!r}; "
                f"use one of {SEVERITY_LAWS}"
            )


@dataclass(frozen=True)
class LotConfig:
    """One production lot and the staged test program it runs through.

    The BIST heading, calibration start and path, product spec, oracle
    grid and test clock are fixed (``init=False``); :meth:`to_dict`
    still echoes them.

    Attributes
    ----------
    size, seed:
        Units minted and the mint seed; ``(seed, config)`` fully
        determines the :class:`~repro.factory.report.LotReport`.
    defects:
        The process model (:class:`DefectDistribution`).
    stages:
        The test program, a non-empty ordered subset of
        :data:`STAGE_NAMES`.  Units stop at their first failing stage
        (that stage gets the catch, and the later stages are neither
        run nor charged), and each stage's verdict comes from a fresh
        target, so reordering stages can only move a catch between
        stages — never change what escapes.
    field_magnitude_t:
        Horizontal field on the factory's field bench [T].
    bist_heading_deg:
        Orientation of the unit in the BIST fixture.  The default is
        deliberately *not* a sensitising heading for every fault
        (123° leaves both counter channels negative, masking a mid-bit
        counter stuck-at-1) — that is what the calibration sweep is for.
    calibration_headings, calibration_start_deg:
        The full-circle turn-table grid for the calibration stage; at
        least 6 headings (the ellipse fit needs them).
    calibration_path:
        Always ``"batch"``: the sweep runs through
        :class:`~repro.batch.BatchCompass` (what makes a 10k lot finish
        in seconds).
    gate_tolerance_deg:
        The calibration stage's max-error pass gate.  Guardbanded below
        the 1° product spec so a unit marginally inside the
        product spec on the factory grid cannot be marginally outside
        it in the field.
    product_tolerance_deg:
        Echo of the shipped product's accuracy spec,
        :data:`~repro.units.TARGET_ACCURACY_DEG`; the escape oracle
        classifies field headings through :mod:`repro.trust`.
    oracle_headings, oracle_start_deg:
        The dense field-audit grid (offset from the calibration grid so
        escapes cannot hide between factory test points).  The oracle
        is accounting, not a factory stage: it never catches anything,
        it only decides whether a defective unit that passed the whole
        program is an *escape* (would serve an unflagged >spec heading)
        or merely latent (defective but inside spec, flagged, or loud).
    tck_hz:
        Boundary-scan test clock for the btest stage's simulated test
        time.
    """

    size: int = 1024
    seed: int = 0
    defects: DefectDistribution = field(default_factory=DefectDistribution)
    stages: Tuple[str, ...] = STAGE_NAMES
    field_magnitude_t: float = 50.0e-6
    bist_heading_deg: float = field(default=123.0, init=False)
    calibration_headings: int = 12
    calibration_start_deg: float = field(default=0.5, init=False)
    calibration_path: str = field(default="batch", init=False)
    gate_tolerance_deg: float = 0.85
    product_tolerance_deg: float = field(default=TARGET_ACCURACY_DEG, init=False)
    oracle_headings: int = field(default=24, init=False)
    oracle_start_deg: float = field(default=8.0, init=False)
    tck_hz: float = field(default=1.0e6, init=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigurationError("lot size must be >= 1")
        if not self.stages:
            raise ConfigurationError("the test program needs at least one stage")
        if len(set(self.stages)) != len(self.stages):
            raise ConfigurationError(f"duplicate stages in {self.stages}")
        for stage in self.stages:
            if stage not in STAGE_NAMES:
                raise ConfigurationError(
                    f"unknown stage {stage!r}; use a subset of {STAGE_NAMES}"
                )
        if self.calibration_headings < 6:
            raise ConfigurationError(
                "calibration needs >= 6 headings (ellipse fit)"
            )
        if not 0.0 < self.gate_tolerance_deg <= TARGET_ACCURACY_DEG:
            raise ConfigurationError(
                f"calibration gate {self.gate_tolerance_deg} deg must sit in "
                f"(0, product tolerance {TARGET_ACCURACY_DEG} deg] — "
                "a gate looser than the spec ships out-of-spec units"
            )

    def to_dict(self) -> dict:
        """JSON-ready echo of the full configuration (report provenance)."""
        return dataclasses.asdict(self)


def golden_lot_config() -> LotConfig:
    """The pinned 256-unit golden lot (``tests/golden/factory_lot.json``).

    A deliberately defect-rich mix (25% defective, 20% multi-fault tail)
    so every disposition class shows up in a lot small enough for the
    tier-1 suite.
    """
    return LotConfig(
        size=256,
        seed=1997,
        defects=DefectDistribution(rate=0.25, multi_fault_rate=0.20),
    )


__all__ = [
    "DefectDistribution",
    "LotConfig",
    "SEVERITY_LAWS",
    "STAGE_NAMES",
    "golden_lot_config",
]
