"""Chaos-soak harness: a fault storm against the replicated service.

The :class:`~repro.faults.campaign.FaultCampaign` proves every fault is
*detectable* on a single instrument; this module proves the
:class:`~repro.service.HeadingService` stays *available and honest*
while faults come and go.  A :class:`ChaosSoak` drives a seeded stream
of heading requests at a replica pool while randomly arming and
disarming registered faults (and grey-failure latency spikes) across at
most a **minority** of replicas — the regime redundancy is designed
for — and checks the service-level invariants:

* **zero silent-wrong** — no response may be out of the 1° spec
  (:func:`repro.trust.in_spec`) while labelled ``authoritative``;
* **availability floor** — at least ``availability_floor`` of requests
  must return a heading (failures must be loud, not frequent);
* **bounded error** — every served heading stays in spec,
  quorum-degraded ones included.

Everything (request headings, fields, fault choice, arm/disarm timing)
derives from one seed through spawned SeedSequence streams, and the
service runs on a :class:`~repro.service.clock.SimulatedClock`, so a
soak is bit-reproducible — a failing seed is a bug report.

The storm itself is a :class:`ReplicaStorm`, one per service; the fleet
soak (:mod:`repro.fleet.soak`) drives one per shard.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, ReproError
from ..observe import M_BREAKER_TRANSITIONS, Observability
from ..service import BreakerState, HeadingService, ServiceConfig
from ..trust import Outcome, in_spec, served_outcome
from ..units import heading_error_deg
from .model import REGISTRY, FaultRegistry

#: Per-step chance of arming one new fault, budget permitting.
ARM_PROBABILITY = 0.25
#: Per-step chance, per armed fault and per spiked replica, of releasing it.
RELEASE_PROBABILITY = 0.15
#: Per-step chance of latency-spiking one healthy replica, budget permitting.
SPIKE_PROBABILITY = 0.05
#: Latency multiplier of a spiked (grey-failing) replica — sized to blow
#: the attempt timeout so the retry/timeout path gets exercised.
SPIKE_SCALE = 20.0


@dataclass(frozen=True)
class SoakConfig:
    """Knobs of one chaos soak.

    Attributes
    ----------
    requests:
        Heading requests in the soak.
    seed:
        Root seed for the request stream and the chaos schedule (the
        service itself is seeded via ``service.seed``).
    service:
        Service under test; the default is the stock 3-replica pool
        with metrics enabled so breaker activity lands in the report.
    faults:
        Registered fault names to draw from; defaults to every
        measurement-probe fault in the registry (scan faults target a
        boundary-scan harness, not a live compass).
    availability_floor:
        Minimum fraction of requests that must return a heading.
    """

    requests: int = 200
    seed: int = 0
    service: ServiceConfig = ServiceConfig(
        observe=Observability.on(tracing=False)
    )
    faults: Optional[Sequence[str]] = None
    availability_floor: float = 0.99

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigurationError("soak needs at least one request")
        if not 0.0 <= self.availability_floor <= 1.0:
            raise ConfigurationError("availability floor must be in [0, 1]")

    @property
    def chaos_budget(self) -> int:
        """Replicas the soak may compromise at once: the strict minority
        ``(replicas − 1) // 2`` that voting is guaranteed to survive."""
        return (self.service.replicas - 1) // 2


@dataclass(frozen=True)
class SoakEvent:
    """One chaos-schedule action, for the reproducibility log."""

    request: int
    action: str  # "arm" | "disarm" | "spike" | "unspike"
    replica: int
    fault: str
    severity: float


@dataclass
class SoakReport:
    """Aggregate record of one soak run."""

    requests: int = 0
    served: int = 0
    failed_loud: int = 0
    silent_wrong: int = 0
    flagged_wrong: int = 0
    worst_error_deg: float = 0.0
    verdicts: Dict[str, int] = field(default_factory=dict)
    failure_types: Dict[str, int] = field(default_factory=dict)
    attempt_counts: List[int] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    events: List[SoakEvent] = field(default_factory=list)
    faults_armed: Dict[str, int] = field(default_factory=dict)
    breaker_transitions: int = 0
    elapsed_s: float = 0.0
    sim_elapsed_s: float = 0.0
    seed: int = 0

    @property
    def availability(self) -> float:
        return self.served / self.requests if self.requests else 0.0

    def attempts_percentile(self, q: float) -> float:
        if not self.attempt_counts:
            return 0.0
        return float(np.percentile(np.array(self.attempt_counts), q))

    def latency_percentile(self, q: float) -> float:
        """Simulated-clock request latency percentile [s] over served
        requests; p999 is ``q=99.9``."""
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.array(self.latencies_s), q))

    def invariants_ok(self, availability_floor: float) -> bool:
        """The three service-level soak invariants, conjoined."""
        return (
            self.silent_wrong == 0
            and self.availability >= availability_floor
            and in_spec(self.worst_error_deg)
        )

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "requests": self.requests,
            "served": self.served,
            "availability": round(self.availability, 5),
            "failed_loud": self.failed_loud,
            "silent_wrong": self.silent_wrong,
            "flagged_wrong": self.flagged_wrong,
            "worst_error_deg": round(self.worst_error_deg, 4),
            "verdicts": dict(sorted(self.verdicts.items())),
            "failure_types": dict(sorted(self.failure_types.items())),
            "attempts_p50": self.attempts_percentile(50.0),
            "attempts_p99": self.attempts_percentile(99.0),
            "latency_p50_ms": round(self.latency_percentile(50.0) * 1e3, 4),
            "latency_p99_ms": round(self.latency_percentile(99.0) * 1e3, 4),
            "latency_p999_ms": round(self.latency_percentile(99.9) * 1e3, 4),
            "faults_armed": dict(sorted(self.faults_armed.items())),
            "chaos_events": len(self.events),
            "breaker_transitions": self.breaker_transitions,
            "elapsed_s": round(self.elapsed_s, 2),
            "sim_elapsed_s": round(self.sim_elapsed_s, 4),
        }

    def summary(self) -> str:
        lines = [
            f"soak: {self.served}/{self.requests} served "
            f"({self.availability:.2%} available), "
            f"{self.failed_loud} loud failures",
            f"silent-wrong {self.silent_wrong}, flagged-wrong "
            f"{self.flagged_wrong}, worst served error "
            f"{self.worst_error_deg:.3f} deg",
            "verdicts: "
            + (
                ", ".join(f"{k}={v}" for k, v in sorted(self.verdicts.items()))
                or "<none>"
            ),
            f"attempts p50={self.attempts_percentile(50.0):.0f} "
            f"p99={self.attempts_percentile(99.0):.0f}; "
            f"latency p50={self.latency_percentile(50.0) * 1e3:.1f} "
            f"p99={self.latency_percentile(99.0) * 1e3:.1f} "
            f"p999={self.latency_percentile(99.9) * 1e3:.1f} ms",
            f"{len(self.events)} chaos events, "
            f"{self.breaker_transitions} breaker transitions",
        ]
        return "\n".join(lines)


class StormAction(NamedTuple):
    """One storm action on one replica, for a soak's event log."""

    action: str  # "arm" | "disarm" | "spike" | "unspike"
    replica: int
    fault: str
    severity: float


class ReplicaStorm:
    """Seeded faults and latency spikes on one service's replicas.

    The storm never compromises more than the strict minority
    ``(replicas − 1) // 2`` of the pool.  A replica counts against that
    budget while a fault is armed on it, while it is latency-spiked, and
    while its breaker has not re-closed: arming a fresh fault while
    another replica is mid-recovery would put a majority out of service,
    outside the regime the budget promises to survive.

    The RNG draws of each operation are part of the contract — a soak
    replays bit-identically from its seed only while they hold:
    :meth:`release` draws once per armed then once per spiked replica;
    :meth:`arm` draws only when it has faults and budget room, then the
    replica, the fault and the severity; :meth:`spike` draws only when
    it has budget room, then the replica.
    """

    def __init__(
        self,
        service: HeadingService,
        fault_names: Sequence[str],
        registry: FaultRegistry = REGISTRY,
    ):
        self.service = service
        self.fault_names = fault_names
        self.registry = registry
        self.budget = (len(service.replicas) - 1) // 2
        #: replica → (fault, severity, guard) of each live injection.
        self._armed: Dict[int, Tuple[str, float, contextlib.ExitStack]] = {}
        self._spiked: List[int] = []

    def compromised(self) -> set:
        """Replicas counted against the budget: armed, latency-spiked,
        or still recovering (breaker not yet closed)."""
        recovering = {
            replica.index
            for replica in self.service.replicas
            if replica.breaker.state is not BreakerState.CLOSED
        }
        return set(self._armed) | set(self._spiked) | recovering

    def _candidates(self) -> List[int]:
        """Uncompromised replicas; none while the budget is spent."""
        compromised = self.compromised()
        if len(compromised) >= self.budget:
            return []
        return [
            index
            for index in range(len(self.service.replicas))
            if index not in compromised
        ]

    def release(self, rng: np.random.Generator) -> List[StormAction]:
        """Disarm each armed fault, then unspike each spiked replica,
        each with :data:`RELEASE_PROBABILITY`."""
        actions = []
        for replica in list(self._armed):
            if rng.random() < RELEASE_PROBABILITY:
                fault, severity, guard = self._armed.pop(replica)
                guard.close()
                actions.append(StormAction("disarm", replica, fault, severity))
        for replica in list(self._spiked):
            if rng.random() < RELEASE_PROBABILITY:
                self._spiked.remove(replica)
                self.service.replicas[replica].latency_scale = 1.0
                actions.append(StormAction("unspike", replica, "latency", 0.0))
        return actions

    def arm(self, rng: np.random.Generator) -> Optional[StormAction]:
        """With :data:`ARM_PROBABILITY`, arm one drawn fault at one drawn
        severity on one healthy replica."""
        candidates = self._candidates()
        if (
            not candidates
            or not self.fault_names
            or rng.random() >= ARM_PROBABILITY
        ):
            return None
        replica = int(rng.choice(candidates))
        fault = self.fault_names[int(rng.integers(len(self.fault_names)))]
        severities = self.registry.get(fault).severities
        severity = float(severities[int(rng.integers(len(severities)))])
        guard = contextlib.ExitStack()
        guard.enter_context(
            self.registry.inject(
                fault, self.service.replicas[replica].compass, severity
            )
        )
        self._armed[replica] = (fault, severity, guard)
        return StormAction("arm", replica, fault, severity)

    def spike(self, rng: np.random.Generator) -> Optional[StormAction]:
        """With :data:`SPIKE_PROBABILITY`, slow one healthy replica down
        by :data:`SPIKE_SCALE`."""
        candidates = self._candidates()
        if not candidates or rng.random() >= SPIKE_PROBABILITY:
            return None
        replica = int(rng.choice(candidates))
        self.service.replicas[replica].latency_scale = SPIKE_SCALE
        self._spiked.append(replica)
        return StormAction("spike", replica, "latency", SPIKE_SCALE)

    def revert(self) -> None:
        """Undo every live injection and spike; draws nothing."""
        for replica in self._spiked:
            self.service.replicas[replica].latency_scale = 1.0
        for _, _, guard in reversed(list(self._armed.values())):
            guard.close()
        self._armed.clear()
        self._spiked.clear()


class ChaosSoak:
    """Runs the seeded fault storm and scores the invariants."""

    def __init__(
        self,
        config: SoakConfig = SoakConfig(),
        registry: FaultRegistry = REGISTRY,
    ):
        self.config = config
        self.registry = registry
        self.fault_names = registry.select("measurement", config.faults)

    # -- scoring ---------------------------------------------------------------

    def _score_response(
        self, response, truth: float, report: SoakReport
    ) -> None:
        report.served += 1
        report.verdicts[response.verdict.value] = (
            report.verdicts.get(response.verdict.value, 0) + 1
        )
        real_attempts = sum(
            1 for a in response.attempts if a.outcome != "breaker-open"
        )
        report.attempt_counts.append(real_attempts)
        report.latencies_s.append(response.elapsed_s)
        error = heading_error_deg(response.heading_deg, truth)
        report.worst_error_deg = max(report.worst_error_deg, error)
        outcome = served_outcome(error, response.authoritative)
        if outcome is Outcome.SILENT_WRONG:
            report.silent_wrong += 1
        elif not in_spec(error):
            report.flagged_wrong += 1

    # -- the soak --------------------------------------------------------------

    @staticmethod
    def _log(
        report: SoakReport, request: int, action: Optional[StormAction]
    ) -> None:
        if action is None:
            return
        report.events.append(SoakEvent(request, *action))
        if action.action == "arm":
            report.faults_armed[action.fault] = (
                report.faults_armed.get(action.fault, 0) + 1
            )

    def run(self) -> SoakReport:
        """Drive the request stream under chaos; returns the report.

        Any faults still armed when the soak ends are reverted before
        returning — injections never leak into the caller's process.
        """
        cfg = self.config
        service = HeadingService(cfg.service)
        storm = ReplicaStorm(service, self.fault_names, self.registry)
        root = np.random.SeedSequence(cfg.seed)
        chaos_stream, request_stream = root.spawn(2)
        chaos_rng = np.random.default_rng(chaos_stream)
        request_rng = np.random.default_rng(request_stream)

        report = SoakReport(seed=cfg.seed)
        sim_start = service.clock.now()
        wall_start = time.perf_counter()
        try:
            for index in range(cfg.requests):
                # Release first so capacity frees up within the same step.
                for action in storm.release(chaos_rng):
                    self._log(report, index, action)
                self._log(report, index, storm.arm(chaos_rng))
                self._log(report, index, storm.spike(chaos_rng))
                truth = float(request_rng.uniform(0.0, 360.0))
                field_t = float(request_rng.uniform(25.0e-6, 65.0e-6))
                report.requests += 1
                try:
                    response = service.measure_heading(truth, field_t)
                except ReproError as error:
                    report.failed_loud += 1
                    key = type(error).__name__
                    report.failure_types[key] = (
                        report.failure_types.get(key, 0) + 1
                    )
                else:
                    self._score_response(response, truth, report)
        finally:
            storm.revert()
        report.elapsed_s = time.perf_counter() - wall_start
        report.sim_elapsed_s = service.clock.now() - sim_start
        metrics = service.observer.metrics
        if metrics is not None:
            counter = metrics.get(M_BREAKER_TRANSITIONS)
            if counter is not None:
                report.breaker_transitions = int(
                    sum(series["value"] for series in counter.series())
                )
        return report


__all__ = [
    "ChaosSoak",
    "ReplicaStorm",
    "SoakConfig",
    "SoakEvent",
    "SoakReport",
    "StormAction",
]
