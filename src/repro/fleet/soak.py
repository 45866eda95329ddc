"""The fleet soak: a chaos storm plus an RPS ramp past saturation.

This is the subsystem's acceptance harness.  It drives the open-loop
generator through a load schedule expressed as multiples of the fleet's
*rated* RPS — warm-up, rated, overload (past saturation), recovery —
while a chaos coroutine arms and disarms registered measurement faults
and latency spikes on the shard services — one
:class:`repro.faults.chaos.ReplicaStorm` per shard, the same storm the
service's chaos soak drives, plus a cap on simultaneously-stormed
shards.  Everything runs on one
deterministic virtual-time kernel, so the full storm replays
bit-identically from its seed.

The report gates four promises:

* **availability** ≥ the configured floor in every at-or-below-rated
  phase, chaos notwithstanding;
* **silent-wrong = 0 at every load level** — overload may shed or
  degrade, it may never produce a confidently wrong heading;
* **typed shedding past saturation** — overload phases must show
  :class:`~repro.errors.OverloadError` sheds (the fleet refuses loudly
  rather than queueing unboundedly);
* **p99 latency of admitted requests within the SLO in every phase** —
  shedding is what keeps the tail flat, and this is where that shows.

:func:`FleetSoak.run` returns a :class:`FleetSoakReport`;
:meth:`FleetSoakReport.raise_for_slo` turns violations into
:class:`~repro.errors.SLOViolationError` for the CLI exit-code path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, SLOViolationError
from ..faults.chaos import ReplicaStorm, StormAction
from ..faults.model import REGISTRY, FaultRegistry
from ..units import TARGET_ACCURACY_DEG
from .config import FleetConfig
from .fleet import HeadingFleet
from .kernel import Kernel
from .loadgen import LoadPhase, OpenLoopGenerator, PhaseRecord

#: Load phases past this multiple of rated RPS count as overload and
#: must show typed shedding.
OVERLOAD_MULTIPLIER = 2.0
#: Cap on shards with any compromised replica at once.
MAX_CHAOTIC_SHARDS = 2


@dataclass(frozen=True)
class FleetSoakConfig:
    """Storm schedule, chaos cadence and gates of one fleet soak.

    Attributes
    ----------
    fleet:
        Fleet under test.
    rated_rps:
        The load the availability floor is promised at; phase rates are
        ``multiplier * rated_rps``.
    phases:
        ``(multiplier, duration_s)`` schedule; the default ramps
        warm-up → rated → 2.5× overload → rated recovery.
    seed:
        Root seed; the load stream and the chaos stream are independent
        spawns of it.
    chaos:
        Master switch for the fault storm; its rates are the
        :mod:`repro.faults.chaos` constants.
    chaos_interval_s:
        Virtual-time period of the chaos stepper (fixed: ``init=False``).
    faults:
        Registered measurement-fault names to draw from; default all.
    hot_fraction, hot_scenes, devices:
        Scene locality knobs of the load generator.
    """

    fleet: FleetConfig = FleetConfig()
    rated_rps: float = 300.0
    phases: Tuple[Tuple[float, float], ...] = (
        (0.5, 2.0),
        (1.0, 6.0),
        (4.0, 4.0),
        (1.0, 4.0),
    )
    seed: int = 0
    chaos: bool = True
    chaos_interval_s: float = field(default=0.05, init=False)
    faults: Optional[Sequence[str]] = None
    hot_fraction: float = 0.5
    hot_scenes: int = 8
    devices: int = 64

    def __post_init__(self) -> None:
        if self.rated_rps <= 0.0:
            raise ConfigurationError("rated RPS must be positive")
        if not self.phases:
            raise ConfigurationError("soak needs at least one phase")
        for multiplier, duration in self.phases:
            if multiplier <= 0.0 or duration <= 0.0:
                raise ConfigurationError(
                    "phase multipliers and durations must be positive"
                )


@dataclass(frozen=True)
class FleetSoakEvent:
    """One chaos action on one shard, for the reproducibility log."""

    time_s: float
    action: str  # "arm" | "disarm" | "spike" | "unspike"
    shard: int
    replica: int
    fault: str
    severity: float


@dataclass
class FleetSoakReport:
    """Scored storm: per-phase outcomes plus the chaos schedule."""

    seed: int
    rated_rps: float
    slo_p99_s: float
    availability_floor: float
    phases: List[Dict[str, Any]] = field(default_factory=list)
    events: List[FleetSoakEvent] = field(default_factory=list)
    faults_armed: Dict[str, int] = field(default_factory=dict)
    fleet_stats: Dict[str, Any] = field(default_factory=dict)
    metrics_snapshot: Optional[Dict[str, Any]] = None
    elapsed_sim_s: float = 0.0
    elapsed_wall_s: float = 0.0

    # -- gates -----------------------------------------------------------------

    def violations(self) -> List[str]:
        """Every broken promise, human-readable; empty means pass."""
        broken: List[str] = []
        for phase in self.phases:
            label = phase["label"]
            if phase["silent_wrong"] != 0:
                broken.append(
                    f"{label}: {phase['silent_wrong']} silent-wrong "
                    f"responses (must be 0 at every load level)"
                )
            if phase["multiplier"] <= 1.0 and (
                phase["availability"] < self.availability_floor
            ):
                broken.append(
                    f"{label}: availability {phase['availability']:.4f} "
                    f"below the {self.availability_floor:.2f} floor at "
                    f"{phase['multiplier']:g}x rated load"
                )
            if phase["served"] > 0 and (
                phase["latency_p99_ms"] > self.slo_p99_s * 1e3
            ):
                broken.append(
                    f"{label}: admitted-request p99 "
                    f"{phase['latency_p99_ms']:.2f} ms exceeds the "
                    f"{self.slo_p99_s * 1e3:.0f} ms SLO"
                )
            if phase["multiplier"] >= OVERLOAD_MULTIPLIER and (
                phase["shed_total"] == 0
            ):
                broken.append(
                    f"{label}: no typed shedding at "
                    f"{phase['multiplier']:g}x rated load — overload is "
                    f"not being refused loudly"
                )
        return broken

    def invariants_ok(self) -> bool:
        return not self.violations()

    def raise_for_slo(self) -> None:
        """Raise :class:`SLOViolationError` when any gate is broken."""
        broken = self.violations()
        if broken:
            raise SLOViolationError(
                "fleet soak violated its SLO gates: " + "; ".join(broken),
                report=self,
            )

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rated_rps": self.rated_rps,
            "slo": {
                "p99_latency_ms": round(self.slo_p99_s * 1e3, 4),
                "availability_floor": self.availability_floor,
                "tolerance_deg": TARGET_ACCURACY_DEG,
            },
            "phases": self.phases,
            "events": [
                {
                    "time_s": round(event.time_s, 6),
                    "action": event.action,
                    "shard": event.shard,
                    "replica": event.replica,
                    "fault": event.fault,
                    "severity": event.severity,
                }
                for event in self.events
            ],
            "faults_armed": dict(sorted(self.faults_armed.items())),
            "fleet": self.fleet_stats,
            "metrics": self.metrics_snapshot,
            "elapsed_sim_s": round(self.elapsed_sim_s, 6),
            "elapsed_wall_s": round(self.elapsed_wall_s, 6),
            "violations": self.violations(),
            "invariants_ok": self.invariants_ok(),
        }

    def summary(self) -> str:
        lines = [
            f"fleet soak: seed={self.seed} rated={self.rated_rps:g} rps "
            f"sim={self.elapsed_sim_s:.2f}s wall={self.elapsed_wall_s:.2f}s"
        ]
        for phase in self.phases:
            lines.append(
                f"  {phase['label']:>10}: offered={phase['offered']:5d} "
                f"served={phase['served']:5d} "
                f"avail={phase['availability']:.4f} "
                f"shed={phase['shed_total']:4d} "
                f"p99={phase['latency_p99_ms']:7.2f}ms "
                f"silent-wrong={phase['silent_wrong']}"
            )
        broken = self.violations()
        lines.append(
            "  invariants: PASS" if not broken
            else "  invariants: FAIL\n    " + "\n    ".join(broken)
        )
        return "\n".join(lines)


class FleetSoak:
    """Runs the storm against a fresh fleet and scores the gates."""

    def __init__(
        self,
        config: FleetSoakConfig = FleetSoakConfig(),
        registry: FaultRegistry = REGISTRY,
    ):
        self.config = config
        self.registry = registry
        self.fault_names = registry.select("measurement", config.faults)

    # -- chaos schedule --------------------------------------------------------

    def _step_chaos(
        self,
        storms: List[ReplicaStorm],
        rng: np.random.Generator,
        report: FleetSoakReport,
        now: float,
    ) -> None:
        """One chaos step: release on every shard, then arm and spike
        shard by shard while at most ``MAX_CHAOTIC_SHARDS`` are stormy."""

        def log(shard: int, action: Optional[StormAction]) -> None:
            if action is None:
                return
            report.events.append(
                FleetSoakEvent(
                    now, action.action, shard, action.replica, action.fault,
                    action.severity,
                )
            )
            if action.action == "arm":
                report.faults_armed[action.fault] = (
                    report.faults_armed.get(action.fault, 0) + 1
                )

        def shard_open(shard: int) -> bool:
            stormy = {i for i, storm in enumerate(storms) if storm.compromised()}
            return shard in stormy or len(stormy) < MAX_CHAOTIC_SHARDS

        # Release everywhere first so capacity frees up within this step.
        for shard, storm in enumerate(storms):
            for action in storm.release(rng):
                log(shard, action)
        for shard, storm in enumerate(storms):
            if shard_open(shard):
                log(shard, storm.arm(rng))
            if shard_open(shard):
                log(shard, storm.spike(rng))

    # -- scoring ---------------------------------------------------------------

    @staticmethod
    def _score_phase(multiplier: float, record: PhaseRecord) -> Dict[str, Any]:
        return {
            "label": record.label,
            "multiplier": multiplier,
            "rps": record.rps,
            "duration_s": record.duration_s,
            "offered": record.offered,
            "served": record.served,
            "availability": round(record.availability, 6),
            "shed": dict(sorted(record.shed.items())),
            "shed_total": record.shed_total,
            "failed": dict(sorted(record.failed.items())),
            "failed_total": record.failed_total,
            "sources": dict(sorted(record.sources.items())),
            "verdicts": dict(sorted(record.verdicts.items())),
            "latency_p50_ms": round(record.latency_percentile(50) * 1e3, 4),
            "latency_p99_ms": round(record.latency_percentile(99) * 1e3, 4),
            "latency_p999_ms": round(
                record.latency_percentile(99.9) * 1e3, 4
            ),
            "worst_error_deg": round(record.worst_error_deg, 6),
            "silent_wrong": record.silent_wrong,
            "flagged_wrong": record.flagged_wrong,
        }

    # -- the soak --------------------------------------------------------------

    def run(self) -> FleetSoakReport:
        """Run the storm on a fresh kernel + fleet; returns the report.

        Injections never leak: every fault still armed when the storm
        ends is reverted before this returns.
        """
        cfg = self.config
        kernel = Kernel()
        fleet = HeadingFleet(cfg.fleet, scheduler=kernel)
        root = np.random.SeedSequence(cfg.seed)
        load_stream, chaos_stream = root.spawn(2)
        chaos_rng = np.random.default_rng(chaos_stream)

        phases = [
            LoadPhase(
                rps=multiplier * cfg.rated_rps,
                duration_s=duration,
                label=f"x{multiplier:g}",
            )
            for multiplier, duration in cfg.phases
        ]
        generator = OpenLoopGenerator(
            fleet,
            phases,
            seed=int(load_stream.generate_state(1)[0]),
            hot_fraction=cfg.hot_fraction,
            hot_scenes=cfg.hot_scenes,
            devices=cfg.devices,
        )
        report = FleetSoakReport(
            seed=cfg.seed,
            rated_rps=cfg.rated_rps,
            slo_p99_s=cfg.fleet.slo.p99_latency_s,
            availability_floor=cfg.fleet.slo.availability_floor,
        )
        storms = [
            ReplicaStorm(shard.service, self.fault_names, self.registry)
            for shard in fleet.shards
        ]
        storm_end = kernel.now() + sum(d for _, d in cfg.phases)

        async def chaos() -> None:
            while kernel.now() < storm_end:
                await kernel.sleep(cfg.chaos_interval_s)
                self._step_chaos(storms, chaos_rng, report, kernel.now())

        async def main() -> List[PhaseRecord]:
            fleet.start()
            chaos_task = (
                kernel.spawn(chaos(), name="chaos") if cfg.chaos else None
            )
            records = await generator.run()
            if chaos_task is not None:
                await chaos_task.future
            await fleet.stop()
            return records

        wall_start = time.perf_counter()
        sim_start = kernel.now()
        try:
            records = kernel.run(main())
        finally:
            # Revert any still-armed injections before scoring.
            for storm in storms:
                storm.revert()
        report.elapsed_wall_s = time.perf_counter() - wall_start
        report.elapsed_sim_s = kernel.now() - sim_start
        report.phases = [
            self._score_phase(multiplier, record)
            for (multiplier, _), record in zip(cfg.phases, records)
        ]
        report.fleet_stats = fleet.stats()
        if fleet.observer.metrics is not None:
            report.metrics_snapshot = fleet.observer.metrics.snapshot()
        return report


__all__ = [
    "FleetSoak",
    "FleetSoakConfig",
    "FleetSoakEvent",
    "FleetSoakReport",
    "OVERLOAD_MULTIPLIER",
]
