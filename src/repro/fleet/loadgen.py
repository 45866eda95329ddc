"""Open-loop seeded Poisson load against the fleet, in virtual time.

**Open-loop** is the property that makes overload testing honest: the
generator draws arrival times from a seeded Poisson process and fires
them regardless of whether the fleet is keeping up — a saturated fleet
does not slow the offered load down, it just has to shed.  (A
closed-loop generator that waits for each response before sending the
next one can never drive a system past saturation, which is exactly the
regime this subsystem exists for.)

Arrivals, scene draws and device keys all come from one seeded RNG
consumed in arrival order, and time is the fleet scheduler's virtual
clock — the whole offered-load schedule is a pure function of
``(seed, phases)``, so a soak replays bit-identically.

The generator runs a list of :class:`LoadPhase` steps (an RPS ramp) and
scores every response into the :class:`PhaseRecord` of the phase that
*issued* it, including tail latency and the two wrongness counters the
SLO gate cares about (silent vs flagged wrong answers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, OverloadError, ReproError
from ..trust import Outcome, in_spec, served_outcome
from ..units import heading_error_deg
from .fleet import HeadingFleet


@dataclass(frozen=True)
class LoadPhase:
    """One step of the offered-load schedule."""

    rps: float
    duration_s: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.rps <= 0.0:
            raise ConfigurationError("phase RPS must be positive")
        if self.duration_s <= 0.0:
            raise ConfigurationError("phase duration must be positive")


@dataclass
class PhaseRecord:
    """Scored outcomes of every request issued during one phase."""

    label: str
    rps: float
    duration_s: float
    offered: int = 0
    served: int = 0
    shed: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)
    latencies_s: List[float] = field(default_factory=list)
    sources: Dict[str, int] = field(default_factory=dict)
    verdicts: Dict[str, int] = field(default_factory=dict)
    worst_error_deg: float = 0.0
    silent_wrong: int = 0
    flagged_wrong: int = 0

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())

    @property
    def availability(self) -> float:
        """Served fraction of offered load (sheds and failures count
        against it)."""
        return self.served / self.offered if self.offered else 1.0

    def latency_percentile(self, q: float) -> float:
        """Served-latency percentile [s]; 0.0 when nothing was served."""
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_s), q))


class OpenLoopGenerator:
    """Seeded Poisson arrivals over a phase schedule, on virtual time.

    ``hot_fraction`` of requests revisit a small pool of ``hot_scenes``
    fixed (heading, field) points — the realistic burst-locality that
    the cache and coalescer exist to absorb; the rest draw fresh uniform
    scenes.  Requests carry one of ``devices`` stable device keys, so
    consistent hashing gives each device an affine shard.
    """

    def __init__(
        self,
        fleet: HeadingFleet,
        phases: Sequence[LoadPhase],
        seed: int = 0,
        hot_fraction: float = 0.5,
        hot_scenes: int = 8,
        devices: int = 64,
        field_band_ut: Tuple[float, float] = (25.0, 65.0),
    ):
        if not phases:
            raise ConfigurationError("load schedule needs at least one phase")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ConfigurationError("hot_fraction must be in [0, 1]")
        if hot_scenes < 1 or devices < 1:
            raise ConfigurationError("hot_scenes and devices must be >= 1")
        self.fleet = fleet
        self.phases = list(phases)
        self.seed = seed
        self.hot_fraction = hot_fraction
        self.devices = devices
        self._rng = np.random.default_rng(seed)
        low, high = field_band_ut
        if not 0.0 < low < high:
            raise ConfigurationError("field band must satisfy 0 < low < high")
        self._band = (low, high)
        self._hot = [
            (
                float(self._rng.uniform(0.0, 360.0)),
                float(self._rng.uniform(low, high)) * 1e-6,
            )
            for _ in range(hot_scenes)
        ]

    def _draw_scene(self) -> Tuple[float, float]:
        if self._rng.random() < self.hot_fraction:
            return self._hot[int(self._rng.integers(len(self._hot)))]
        low, high = self._band
        return (
            float(self._rng.uniform(0.0, 360.0)),
            float(self._rng.uniform(low, high)) * 1e-6,
        )

    async def _one(
        self,
        record: PhaseRecord,
        key: str,
        true_heading_deg: float,
        field_magnitude_t: float,
    ) -> None:
        record.offered += 1
        try:
            response = await self.fleet.submit(
                key, true_heading_deg, field_magnitude_t
            )
        except OverloadError as error:
            record.shed[error.reason] = record.shed.get(error.reason, 0) + 1
            return
        except ReproError as error:
            name = type(error).__name__
            record.failed[name] = record.failed.get(name, 0) + 1
            return
        record.served += 1
        record.latencies_s.append(response.latency_s)
        record.sources[response.source] = (
            record.sources.get(response.source, 0) + 1
        )
        record.verdicts[response.verdict] = (
            record.verdicts.get(response.verdict, 0) + 1
        )
        error_deg = heading_error_deg(response.heading_deg, true_heading_deg)
        record.worst_error_deg = max(record.worst_error_deg, error_deg)
        outcome = served_outcome(error_deg, response.authoritative)
        if outcome is Outcome.SILENT_WRONG:
            record.silent_wrong += 1
        elif not in_spec(error_deg):
            record.flagged_wrong += 1

    async def run(self) -> List[PhaseRecord]:
        """Fire the whole schedule; returns one record per phase.

        All in-flight requests are drained (awaited) before returning,
        each scored into the phase that issued it.
        """
        scheduler = self.fleet.scheduler
        records: List[PhaseRecord] = []
        tasks = []
        for index, phase in enumerate(self.phases):
            record = PhaseRecord(
                label=phase.label or f"phase-{index}",
                rps=phase.rps,
                duration_s=phase.duration_s,
            )
            records.append(record)
            phase_end = scheduler.now() + phase.duration_s
            while True:
                gap = float(self._rng.exponential(1.0 / phase.rps))
                now = scheduler.now()
                if now + gap >= phase_end:
                    # Next arrival falls past this phase; idle out the
                    # remainder and let the next phase redraw its rate.
                    remainder = phase_end - now
                    if remainder > 0.0:
                        await scheduler.sleep(remainder)
                    break
                await scheduler.sleep(gap)
                heading, field_t = self._draw_scene()
                device = f"device-{int(self._rng.integers(self.devices))}"
                tasks.append(
                    scheduler.spawn(
                        self._one(record, device, heading, field_t),
                        name=f"req-{len(tasks)}",
                    )
                )
        for task in tasks:
            await task.future
        return records


__all__ = ["LoadPhase", "OpenLoopGenerator", "PhaseRecord"]
