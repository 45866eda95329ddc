"""Component-tolerance and yield analysis.

§6: "the system is designed to broad specifications so it can operate
with fluxgate sensors which will be realised in near future."  This
module quantifies how broad: it samples production-realistic component
variations, builds one perturbed compass per sample, and reports the
yield against the 1° heading budget.

Variations modelled (one :class:`ToleranceBudget` field each):

* oscillator timing R and C (sets excitation frequency and, through the
  V-I converter, the drive amplitude),
* comparator input offset (via the noise budget's static offset draw,
  applied asymmetrically to the detector thresholds),
* sensor anisotropy-field (HK) spread between dies,
* pair gain mismatch and axis misalignment from assembly.

The headline result (bench TOL1): the design meets spec with standard
1 %-class components because the pulse-position architecture is
*ratiometric* — frequency and amplitude errors cancel between the two
multiplexed channels; only channel-asymmetric terms (offsets, mismatch,
misalignment) survive.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..sensors.pair import PairImperfections
from .accuracy import ErrorStats
from .compass import CompassConfig, IntegratedCompass
from .heading import headings_evenly_spaced


@dataclass(frozen=True)
class ToleranceBudget:
    """One-sigma (or uniform half-range) component variations.

    Attributes
    ----------
    rc_tolerance:
        Relative tolerance of the oscillator R and C (uniform, e.g. 0.01
        for 1 % components).
    comparator_offset_sigma:
        Static comparator offset spread [V], referred to the amplifier
        output.
    hk_tolerance:
        Relative spread of the sensor anisotropy field between dies.
    gain_mismatch_sigma:
        Channel gain mismatch (relative, gaussian).
    misalignment_sigma_deg:
        Axis misalignment from assembly [degrees, gaussian].
    """

    rc_tolerance: float = 0.01
    comparator_offset_sigma: float = 2.0e-3
    hk_tolerance: float = 0.05
    gain_mismatch_sigma: float = 0.01
    misalignment_sigma_deg: float = 0.2

    def __post_init__(self) -> None:
        for name in (
            "rc_tolerance",
            "comparator_offset_sigma",
            "hk_tolerance",
            "gain_mismatch_sigma",
            "misalignment_sigma_deg",
        ):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be non-negative")


#: 1 %-class passives, 2 mV comparators, 5 % sensor spread — the
#: production reality the §6 sentence has to survive.
PRODUCTION_1997 = ToleranceBudget()


@dataclass
class ToleranceSample:
    """One sampled unit and its measured performance."""

    config: CompassConfig
    stats: ErrorStats

    @property
    def passes(self) -> bool:
        return self.stats.in_spec


def perturbed_config(
    base: CompassConfig, budget: ToleranceBudget, rng: np.random.Generator
) -> CompassConfig:
    """Draw one production unit from the tolerance distributions."""
    r_factor = 1.0 + rng.uniform(-budget.rc_tolerance, budget.rc_tolerance)
    c_factor = 1.0 + rng.uniform(-budget.rc_tolerance, budget.rc_tolerance)
    base_osc = base.front_end.excitation.oscillator
    oscillator = dataclasses.replace(
        base_osc,
        resistance=base_osc.resistance * r_factor,
        capacitance=base_osc.capacitance * c_factor,
    )
    excitation = dataclasses.replace(
        base.front_end.excitation, oscillator=oscillator
    )

    base_det = base.front_end.detector
    detector = dataclasses.replace(
        base_det,
        threshold=base_det.threshold
        + float(rng.normal(0.0, budget.comparator_offset_sigma)),
    )
    front_end = dataclasses.replace(
        base.front_end, excitation=excitation, detector=detector
    )

    hk_factor = 1.0 + rng.uniform(-budget.hk_tolerance, budget.hk_tolerance)
    sensor = base.sensor.with_anisotropy_field(
        base.sensor.core.anisotropy_field * hk_factor
    )

    imperfections = PairImperfections(
        misalignment_deg=float(rng.normal(0.0, budget.misalignment_sigma_deg)),
        gain_mismatch=float(rng.normal(0.0, budget.gain_mismatch_sigma)),
        offset_x=base.imperfections.offset_x,
        offset_y=base.imperfections.offset_y,
    )
    return dataclasses.replace(
        base,
        front_end=front_end,
        sensor=sensor,
        imperfections=imperfections,
    )


def measure_unit(
    config: CompassConfig,
    n_headings: int = 8,
    field_magnitude_t: float = 50.0e-6,
    start_deg: float = 11.0,
) -> ErrorStats:
    """Worst-case heading error of one unit over a heading sweep.

    The sweep runs through the batch engine (bit-identical to a scalar
    ``measure_heading`` loop, several times faster over a turntable's
    worth of headings).
    """
    # Deferred import: repro.batch itself imports this package.
    from ..batch import BatchCompass

    headings = headings_evenly_spaced(n_headings, start_deg)
    measurements = BatchCompass(IntegratedCompass(config)).sweep_headings(
        headings, field_magnitude_t=field_magnitude_t
    )
    return ErrorStats.from_sweep(headings, measurements)


@dataclass
class YieldReport:
    """Outcome of a tolerance Monte-Carlo run."""

    samples: List[ToleranceSample]

    @property
    def n_units(self) -> int:
        return len(self.samples)

    @property
    def n_passing(self) -> int:
        return sum(1 for s in self.samples if s.passes)

    @property
    def yield_fraction(self) -> float:
        return self.n_passing / self.n_units

    @property
    def worst_unit_error(self) -> float:
        return max(s.stats.max_error for s in self.samples)

    def error_percentile(self, q: float) -> float:
        """Percentile of per-unit worst errors (q in 0…100)."""
        return float(
            np.percentile([s.stats.max_error for s in self.samples], q)
        )


def tolerance_yield(
    budget: ToleranceBudget = PRODUCTION_1997,
    n_units: int = 25,
    n_headings: int = 8,
    base: Optional[CompassConfig] = None,
    seed: int = 2025,
) -> YieldReport:
    """Monte-Carlo yield against the 1° budget.

    Each simulated unit draws its components once (die + assembly), then
    is tested over a heading sweep like a production turntable test.
    """
    if n_units < 1:
        raise ConfigurationError("need at least one unit")
    rng = np.random.default_rng(seed)
    base = base or CompassConfig()
    samples = []
    for _ in range(n_units):
        config = perturbed_config(base, budget, rng)
        stats = measure_unit(config, n_headings=n_headings)
        samples.append(ToleranceSample(config, stats))
    return YieldReport(samples)
