"""Chaos-soak harness: a fault storm against the replicated service.

The :class:`~repro.faults.campaign.FaultCampaign` proves every fault is
*detectable* on a single instrument; this module proves the
:class:`~repro.service.HeadingService` stays *available and honest*
while faults come and go.  A :class:`ChaosSoak` drives a seeded stream
of heading requests at a replica pool while randomly arming and
disarming registered faults (and grey-failure latency spikes) across at
most a **minority** of replicas — the regime redundancy is designed
for — and checks the service-level invariants:

* **zero silent-wrong** — no response may be more than ``tolerance_deg``
  from the truth while labelled ``authoritative``;
* **availability floor** — at least ``availability_floor`` of requests
  must return a heading (failures must be loud, not frequent);
* **bounded error** — every served heading stays within
  ``tolerance_deg`` of the truth, quorum-degraded ones included.

Everything (request headings, fields, fault choice, arm/disarm timing)
derives from one seed through spawned SeedSequence streams, and the
service runs on a :class:`~repro.service.clock.SimulatedClock`, so a
soak is bit-reproducible — a failing seed is a bug report.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, ReproError, ServiceError
from ..observe import M_BREAKER_TRANSITIONS, Observability
from ..service import BreakerState, HeadingService, ServiceConfig
from ..trust import Outcome, in_spec, served_outcome
from ..units import TARGET_ACCURACY_DEG, heading_error_deg
from .model import REGISTRY, FaultRegistry


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
    arm_probability:
        Per-request chance of arming one new fault, capacity permitting.
    disarm_probability:
        Per-request chance, per armed fault, of disarming it.
    latency_spike_probability:
        Per-request chance of turning a healthy replica into a slow
        (grey-failing) one, capacity permitting.
    latency_spike_scale:
        Latency multiplier of a spiked replica — sized to blow the
        attempt timeout so the retry/timeout path gets exercised.
    max_chaotic_replicas:
        Cap on simultaneously compromised replicas (faults + latency
        spikes together); ``None`` means the strict minority
        ``(replicas − 1) // 2`` that voting is guaranteed to survive.
    tolerance_deg:
        The paper's 1° accuracy spec — the silent-wrong threshold.
    availability_floor:
        Minimum fraction of requests that must return a heading.
    """

    requests: int = 200
    seed: int = 0
    service: ServiceConfig = ServiceConfig(
        observe=Observability.on(tracing=False)
    )
    faults: Optional[Sequence[str]] = None
    arm_probability: float = 0.25
    disarm_probability: float = 0.15
    latency_spike_probability: float = 0.05
    latency_spike_scale: float = 20.0
    max_chaotic_replicas: Optional[int] = None
    tolerance_deg: float = TARGET_ACCURACY_DEG
    availability_floor: float = 0.99

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigurationError("soak needs at least one request")
        if not 0.0 <= self.availability_floor <= 1.0:
            raise ConfigurationError("availability floor must be in [0, 1]")

    @property
    def chaos_budget(self) -> int:
        """Replicas the soak may compromise at once (strict minority)."""
        if self.max_chaotic_replicas is not None:
            return self.max_chaotic_replicas
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

    def invariants_ok(
        self,
        availability_floor: float,
        tolerance_deg: float = TARGET_ACCURACY_DEG,
    ) -> bool:
        """The three service-level soak invariants, conjoined."""
        return (
            self.silent_wrong == 0
            and self.availability >= availability_floor
            and in_spec(self.worst_error_deg, tolerance_deg)
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

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


class _ArmedFault:
    """Bookkeeping for one live injection."""

    def __init__(self, name: str, severity: float, guard) -> None:
        self.name = name
        self.severity = severity
        self.guard = guard


class ChaosSoak:
    """Runs the seeded fault storm and scores the invariants."""

    def __init__(
        self,
        config: SoakConfig = SoakConfig(),
        registry: FaultRegistry = REGISTRY,
    ):
        self.config = config
        self.registry = registry
        names = (
            list(config.faults)
            if config.faults is not None
            else [
                spec.name
                for spec in registry.specs()
                if spec.probe == "measurement"
            ]
        )
        for name in names:
            if registry.get(name).probe != "measurement":
                raise ConfigurationError(
                    f"soak can only arm measurement-probe faults, not "
                    f"{name!r}"
                )
        self.fault_names = names

    # -- chaos schedule --------------------------------------------------------

    @staticmethod
    def _chaotic_replicas(
        service: HeadingService,
        armed: Dict[int, "_ArmedFault"],
        spiked: Dict[int, float],
    ) -> set:
        """Replicas counted against the minority budget: currently armed,
        latency-spiked, or still recovering (breaker not yet closed)."""
        recovering = {
            replica.index
            for replica in service.replicas
            if replica.breaker.state is not BreakerState.CLOSED
        }
        return set(armed) | set(spiked) | recovering

    def _step_chaos(
        self,
        request_index: int,
        rng: np.random.Generator,
        service: HeadingService,
        armed: Dict[int, _ArmedFault],
        spiked: Dict[int, float],
        report: SoakReport,
        stack: contextlib.ExitStack,
    ) -> None:
        cfg = self.config
        # Disarm first so capacity frees up within the same step.
        for replica_index in list(armed):
            if rng.random() < cfg.disarm_probability:
                entry = armed.pop(replica_index)
                entry.guard.close()
                report.events.append(
                    SoakEvent(
                        request_index,
                        "disarm",
                        replica_index,
                        entry.name,
                        entry.severity,
                    )
                )
        for replica_index in list(spiked):
            if rng.random() < cfg.disarm_probability:
                spiked.pop(replica_index)
                service.replicas[replica_index].latency_scale = 1.0
                report.events.append(
                    SoakEvent(
                        request_index, "unspike", replica_index, "latency", 0.0
                    )
                )

        # A replica stays "compromised" until its breaker re-closes: arming
        # a fresh fault while another replica is mid-recovery would put a
        # majority out of service, which is outside the regime the minority
        # budget promises to survive.
        chaotic = self._chaotic_replicas(service, armed, spiked)
        if (
            len(chaotic) < cfg.chaos_budget
            and rng.random() < cfg.arm_probability
            and self.fault_names
        ):
            candidates = [
                i
                for i in range(cfg.service.replicas)
                if i not in chaotic
            ]
            replica_index = int(rng.choice(candidates))
            name = self.fault_names[int(rng.integers(len(self.fault_names)))]
            spec = self.registry.get(name)
            severity = float(
                spec.severities[int(rng.integers(len(spec.severities)))]
            )
            guard = stack.enter_context(contextlib.ExitStack())
            guard.enter_context(
                self.registry.inject(
                    name, service.replicas[replica_index].compass, severity
                )
            )
            armed[replica_index] = _ArmedFault(name, severity, guard)
            report.faults_armed[name] = report.faults_armed.get(name, 0) + 1
            report.events.append(
                SoakEvent(request_index, "arm", replica_index, name, severity)
            )

        chaotic = self._chaotic_replicas(service, armed, spiked)
        if (
            len(chaotic) < cfg.chaos_budget
            and rng.random() < cfg.latency_spike_probability
        ):
            candidates = [
                i for i in range(cfg.service.replicas) if i not in chaotic
            ]
            if candidates:
                replica_index = int(rng.choice(candidates))
                service.replicas[replica_index].latency_scale = (
                    cfg.latency_spike_scale
                )
                spiked[replica_index] = cfg.latency_spike_scale
                report.events.append(
                    SoakEvent(
                        request_index,
                        "spike",
                        replica_index,
                        "latency",
                        cfg.latency_spike_scale,
                    )
                )

    # -- scoring ---------------------------------------------------------------

    def _score_response(
        self, response, truth: float, report: SoakReport
    ) -> None:
        cfg = self.config
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
        outcome = served_outcome(error, response.authoritative, cfg.tolerance_deg)
        if outcome is Outcome.SILENT_WRONG:
            report.silent_wrong += 1
        elif not in_spec(error, cfg.tolerance_deg):
            report.flagged_wrong += 1

    # -- the soak --------------------------------------------------------------

    def run(self) -> SoakReport:
        """Drive the request stream under chaos; returns the report.

        Any faults still armed when the soak ends are reverted before
        returning — injections never leak into the caller's process.
        """
        cfg = self.config
        service = HeadingService(cfg.service)
        root = np.random.SeedSequence(cfg.seed)
        chaos_stream, request_stream = root.spawn(2)
        chaos_rng = np.random.default_rng(chaos_stream)
        request_rng = np.random.default_rng(request_stream)

        report = SoakReport(seed=cfg.seed)
        armed: Dict[int, _ArmedFault] = {}
        spiked: Dict[int, float] = {}
        sim_start = service.clock.now()
        wall_start = time.perf_counter()
        with contextlib.ExitStack() as stack:
            for index in range(cfg.requests):
                self._step_chaos(
                    index, chaos_rng, service, armed, spiked, report, stack
                )
                truth = float(request_rng.uniform(0.0, 360.0))
                field_t = float(request_rng.uniform(25.0e-6, 65.0e-6))
                report.requests += 1
                try:
                    response = service.measure_heading(truth, field_t)
                except ServiceError as error:
                    report.failed_loud += 1
                    key = type(error).__name__
                    report.failure_types[key] = (
                        report.failure_types.get(key, 0) + 1
                    )
                except ReproError as error:  # pragma: no cover - defensive
                    report.failed_loud += 1
                    key = type(error).__name__
                    report.failure_types[key] = (
                        report.failure_types.get(key, 0) + 1
                    )
                else:
                    self._score_response(response, truth, report)
            for replica_index in list(spiked):
                service.replicas[replica_index].latency_scale = 1.0
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


__all__ = ["ChaosSoak", "SoakConfig", "SoakEvent", "SoakReport"]
