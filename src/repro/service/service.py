"""The resilient heading service: N replicas, one trustworthy answer.

:class:`HeadingService` fronts a bulkhead pool of independently-seeded
:class:`~repro.core.compass.IntegratedCompass` replicas and turns
per-replica failures into request-level resilience:

* **deadline + attempt timeout** — every request carries a deadline;
  every attempt a timeout.  A slow replica (grey failure) is abandoned
  at the timeout and charged to its breaker like any other failure.
* **bounded retries with backoff** — failed attempts retry up to
  ``max_attempts_per_replica`` times, sleeping a decorrelated-jitter
  backoff delay in between (deterministic via the injected clock/RNG).
* **per-replica circuit breakers** — consecutive failures eject a
  replica from the pool; a half-open probe readmits it once it proves
  healthy again.
* **K-of-N voting** — surviving healthy headings are voted on the
  circle (median/MAD outlier rejection); the verdict on the response
  says exactly how much trust the answer deserves.

Verdict semantics (:class:`ServiceVerdict`):

``AUTHORITATIVE``
    Every replica in the pool contributed a first-class healthy heading
    and the vote was unanimous (no outlier rejected).
``QUORUM_DEGRADED``
    A quorum answered, but something was lost on the way: a replica
    ejected, retried, timed out, voted out as an outlier, or a
    health-degraded measurement had to be counted.
``FAILED``
    No quorum — the request raises :class:`~repro.errors.QuorumError`
    (or :class:`~repro.errors.CircuitOpenError` when every breaker was
    open), so a failure can never be mistaken for a heading.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.compass import CompassConfig, SolveMemo
from ..core.health import HealthConfig
from ..core.heading import HeadingMeasurement
from ..errors import (
    CircuitOpenError,
    ConfigurationError,
    QuorumError,
    ReproError,
)
from ..observe import (
    ATTEMPT_BUCKETS,
    DISSENT_BUCKETS_DEG,
    LATENCY_BUCKETS_S,
    M_BREAKER_STATE,
    M_BREAKER_TRANSITIONS,
    M_SERVICE_ATTEMPTS,
    M_SERVICE_ATTEMPTS_PER_REQUEST,
    M_SERVICE_LATENCY,
    M_SERVICE_REQUESTS,
    M_VOTE_DISSENT,
    Observability,
    build_observer,
)
from ..observe.trace import STAGE_ATTEMPT, STAGE_REQUEST
from .backoff import BackoffSchedule
from .breaker import BreakerConfig, BreakerState, CircuitBreaker
from .clock import Clock, SimulatedClock
from .replica import CompassReplica
from .voting import VOTE_OUTLIER_DEG, VoteResult, vote_headings

#: Per-attempt reply budget [s]; slower replies are abandoned.
ATTEMPT_TIMEOUT_S = 0.02


class ServiceVerdict(enum.Enum):
    """Trust label attached to every service response."""

    AUTHORITATIVE = "authoritative"
    QUORUM_DEGRADED = "quorum-degraded"
    FAILED = "failed"


@dataclass(frozen=True)
class ServiceConfig:
    """Everything configurable about the heading service.

    Attributes
    ----------
    replicas:
        Pool size N.
    quorum:
        Minimum vote-eligible headings K required to answer at all.
    deadline_s:
        Per-request wall budget on the service clock [s].
    max_attempts_per_replica:
        Attempt budget per replica per request (first try + retries;
        fixed: ``init=False``).
    breaker:
        Circuit-breaker policy.  The retry delays follow the fixed
        ``BACKOFF_*`` constants of :mod:`repro.service.backoff`.
    seed:
        Root seed; replica noise, latency jitter and backoff jitter are
        all spawned from it, so a service run is reproducible.
    compass:
        Base compass configuration; each replica gets it re-seeded.
        The default enables *strict* health supervision — replicas fail
        loudly and resilience lives at the service layer, not inside
        the instrument.
    observe:
        Service-level observability; enabled it carries breaker states,
        retry counts, vote dissent and latency, plus every replica's
        measurement spans/metrics merged into one registry.
    """

    replicas: int = 3
    quorum: int = 2
    deadline_s: float = 0.5
    max_attempts_per_replica: int = field(default=3, init=False)
    breaker: BreakerConfig = BreakerConfig()
    seed: int = 0
    compass: CompassConfig = CompassConfig(health=HealthConfig(enabled=True))
    observe: Observability = Observability()

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigurationError("service needs at least one replica")
        if not 1 <= self.quorum <= self.replicas:
            raise ConfigurationError(
                f"quorum {self.quorum} must be in 1..{self.replicas}"
            )
        if self.deadline_s <= 0.0:
            raise ConfigurationError("deadline must be positive")


@dataclass(frozen=True)
class AttemptRecord:
    """One replica attempt within one request."""

    replica: str
    attempt: int
    outcome: str  # "ok" | "degraded" | "fault" | "timeout" | "breaker-open"
    latency_s: float
    detail: str = ""


@dataclass(frozen=True)
class ServiceResponse:
    """One served heading with its full resilience provenance."""

    heading_deg: float
    verdict: ServiceVerdict
    field_estimate_a_per_m: float
    votes: Tuple[float, ...]
    vote: VoteResult
    attempts: Tuple[AttemptRecord, ...]
    elapsed_s: float
    flags: Tuple[str, ...] = ()

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)

    @property
    def authoritative(self) -> bool:
        return self.verdict is ServiceVerdict.AUTHORITATIVE


@dataclass
class _Collected:
    """Per-replica request state while votes are being gathered."""

    healthy: Optional[HeadingMeasurement] = None
    degraded: Optional[HeadingMeasurement] = None
    attempts: int = 0
    exhausted: bool = False
    flags: List[str] = field(default_factory=list)


class HeadingService:
    """Replicated, breaker-guarded, vote-checked heading requests."""

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        clock: Optional[Clock] = None,
    ):
        self.config = config
        self.clock = clock if clock is not None else SimulatedClock()
        self.observer = build_observer(config.observe)
        root = np.random.SeedSequence(config.seed)
        noise_seeds = root.spawn(config.replicas)
        latency_streams = root.spawn(config.replicas)
        self._backoff_rng = np.random.default_rng(root.spawn(1)[0])
        # The replicas are equal by construction but for the noise seed,
        # so an unarmed replica reuses the request's certified solve
        # (IntegratedCompass.share_solves).
        solves: SolveMemo = {}
        self.replicas: List[CompassReplica] = []
        for index in range(config.replicas):
            name = f"replica-{index}"
            breaker = CircuitBreaker(
                config.breaker,
                self.clock,
                on_transition=self._transition_hook(name),
            )
            replica = CompassReplica(
                index,
                config.compass,
                breaker,
                np.random.default_rng(latency_streams[index]),
                noise_seed=int(noise_seeds[index].generate_state(1)[0]),
            )
            # One span tree and one metrics registry for every replica.
            replica.compass.attach_observer(self.observer)
            replica.compass.share_solves(solves)
            self.replicas.append(replica)

    # -- observability ---------------------------------------------------------

    def _transition_hook(self, replica_name: str):
        # The hook closes over the observer, not the service: each
        # replica's breaker holds it, so a reference back to the service
        # would keep a dropped service and its replicas alive until a
        # cyclic collection.
        observer = self.observer

        def hook(from_state: BreakerState, to_state: BreakerState) -> None:
            metrics = observer.metrics
            if metrics is None:
                return
            metrics.counter(
                M_BREAKER_TRANSITIONS,
                "circuit-breaker state transitions, by replica and new state",
                ("replica", "to"),
            ).inc(replica=replica_name, to=to_state.value)
            metrics.gauge(
                M_BREAKER_STATE,
                "breaker state per replica (0 closed, 1 open, 2 half-open)",
                ("replica",),
            ).set(to_state.gauge_value, replica=replica_name)

        return hook

    def breaker_states(self) -> Dict[str, str]:
        """Current breaker state per replica (resolves cool-downs)."""
        return {
            replica.name: replica.breaker.state.value
            for replica in self.replicas
        }

    def _count_attempt(self, record: AttemptRecord) -> None:
        metrics = self.observer.metrics
        if metrics is None:
            return
        metrics.counter(
            M_SERVICE_ATTEMPTS,
            "service measurement attempts, by replica and outcome",
            ("replica", "outcome"),
        ).inc(replica=record.replica, outcome=record.outcome)

    def _count_request(
        self,
        verdict: ServiceVerdict,
        attempts: int,
        elapsed_s: float,
        dissent_deg: Optional[float],
    ) -> None:
        metrics = self.observer.metrics
        if metrics is None:
            return
        metrics.counter(
            M_SERVICE_REQUESTS,
            "service requests, by verdict",
            ("verdict",),
        ).inc(verdict=verdict.value)
        metrics.histogram(
            M_SERVICE_ATTEMPTS_PER_REQUEST,
            "replica attempts spent per request",
            (),
            buckets=ATTEMPT_BUCKETS,
        ).observe(float(attempts))
        metrics.histogram(
            M_SERVICE_LATENCY,
            "request latency on the service clock [s]",
            (),
            buckets=LATENCY_BUCKETS_S,
        ).observe(elapsed_s)
        if dissent_deg is not None:
            metrics.histogram(
                M_VOTE_DISSENT,
                "max inlier deviation from the voted heading [deg]",
                (),
                buckets=DISSENT_BUCKETS_DEG,
            ).observe(dissent_deg)

    # -- the bulk scene path ---------------------------------------------------

    def measure_scene(self, scene) -> List[ServiceResponse]:
        """Serve one frozen scene through every replica's batch engine.

        The bulk counterpart of :meth:`measure_heading`: each replica
        measures all rows in one batched pass (bit-identical per row to
        its scalar measurement), then each row is voted exactly like a
        scalar request.  Replicas run in parallel, so the scene costs
        ``max`` rather than ``sum`` of the per-replica bulk latencies.

        Resilience semantics are the scalar path's without retries: a
        replica that raises during its batch is excluded from every
        row's vote (its failure is one shared front-end, not one row),
        a health-degraded row counts as a second-class vote, and a row
        with fewer than ``quorum`` vote-eligible headings raises
        :class:`~repro.errors.QuorumError`.
        """
        n_rows = len(scene)
        if n_rows == 0:
            return []
        start = self.clock.now()
        per_replica: List[Optional[List[HeadingMeasurement]]] = []
        attempts: List[AttemptRecord] = []
        bulk_latency = 0.0
        with self.observer.span(
            "service.scene", rows=n_rows, replicas=len(self.replicas)
        ):
            for replica in self.replicas:
                latency = replica.draw_latency() * n_rows
                outcome = "ok"
                detail = ""
                try:
                    rows = replica.batch().measure_scene(scene)
                except ReproError as error:
                    rows = None
                    outcome = "fault"
                    detail = f"{type(error).__name__}: {error}"
                    replica.breaker.record_failure()
                else:
                    replica.breaker.record_success()
                per_replica.append(rows)
                bulk_latency = max(bulk_latency, latency)
                record = AttemptRecord(replica.name, 1, outcome, latency, detail)
                attempts.append(record)
                self._count_attempt(record)
            self.clock.sleep(bulk_latency)
        elapsed_s = (self.clock.now() - start) / n_rows
        responses: List[ServiceResponse] = []
        for row in range(n_rows):
            healthy: List[Tuple[str, HeadingMeasurement]] = []
            degraded: List[Tuple[str, HeadingMeasurement]] = []
            flags: List[str] = []
            for replica, rows in zip(self.replicas, per_replica):
                if rows is None:
                    flags.append(f"{replica.name}: batch-fault")
                    continue
                measurement = rows[row]
                if measurement.degraded:
                    detail = ",".join(measurement.health.flags)
                    flags.append(f"{replica.name}: degraded: {detail}")
                    degraded.append((replica.name, measurement))
                else:
                    healthy.append((replica.name, measurement))
            responses.append(
                self._verdict(
                    healthy,
                    degraded,
                    flags,
                    attempts,
                    attempt_count=len(self.replicas),
                    elapsed_s=elapsed_s,
                    prefix=f"scene row {row}: ",
                )
            )
        return responses

    # -- the request loop ------------------------------------------------------

    def measure_heading(
        self,
        true_heading_deg: float,
        field_magnitude_t: float = 50.0e-6,
        *,
        max_replicas: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> ServiceResponse:
        """Serve one heading request through the replica pool.

        ``max_replicas`` consults only the first ``max_replicas``
        replicas (clamped to ``quorum..N``) — the fleet's brownout
        ladder uses it to step the vote pool down from N toward K under
        sustained overload.  A stepped-down request can never come back
        ``AUTHORITATIVE``: the clean-sweep test requires every replica
        in the pool, so shedding confirmation replicas always shows up
        in the verdict.  ``deadline_s`` overrides the configured
        per-request deadline for this request only.

        Raises :class:`~repro.errors.CircuitOpenError` when every
        breaker refuses the request outright, and
        :class:`~repro.errors.QuorumError` when retries, timeouts and
        the deadline leave fewer than ``quorum`` vote-eligible
        headings.
        """
        cfg = self.config
        if max_replicas is None:
            pool = self.replicas
        else:
            limit = max(cfg.quorum, min(max_replicas, len(self.replicas)))
            pool = self.replicas[:limit]
        budget = cfg.deadline_s if deadline_s is None else deadline_s
        if budget <= 0.0:
            raise ConfigurationError("request deadline must be positive")
        start = self.clock.now()
        deadline = start + budget
        state = {replica.name: _Collected() for replica in pool}
        attempts: List[AttemptRecord] = []
        breaker_refusals = 0

        with self.observer.span(
            STAGE_REQUEST, true_heading_deg=true_heading_deg
        ) as root:
            try:
                response = self._drive_request(
                    true_heading_deg,
                    field_magnitude_t,
                    pool,
                    state,
                    attempts,
                    deadline,
                    start,
                )
            except ReproError as error:
                breaker_refusals = sum(
                    1 for a in attempts if a.outcome == "breaker-open"
                )
                root.set(verdict=ServiceVerdict.FAILED.value, error=str(error))
                self._count_request(
                    ServiceVerdict.FAILED,
                    len(attempts) - breaker_refusals,
                    self.clock.now() - start,
                    None,
                )
                raise
            root.set(
                verdict=response.verdict.value,
                heading_deg=response.heading_deg,
                attempts=response.attempt_count,
            )
        return response

    def _drive_request(
        self,
        true_heading_deg: float,
        field_magnitude_t: float,
        pool: List[CompassReplica],
        state: Dict[str, _Collected],
        attempts: List[AttemptRecord],
        deadline: float,
        start: float,
    ) -> ServiceResponse:
        cfg = self.config
        backoff = BackoffSchedule(self._backoff_rng)

        # Round-robin over replicas still owing a healthy vote, retrying
        # with backoff until every replica has answered, exhausted its
        # attempt budget, or the deadline arrives.
        while True:
            pending = [
                r
                for r in pool
                if state[r.name].healthy is None
                and not state[r.name].exhausted
            ]
            if not pending:
                break
            if self.clock.now() >= deadline:
                for replica in pending:
                    state[replica.name].flags.append("deadline-exhausted")
                break
            made_attempt = False
            refused_this_round = 0
            for replica in pending:
                if self.clock.now() >= deadline:
                    break
                slot = state[replica.name]
                if not replica.breaker.allow():
                    refused_this_round += 1
                    if not any(
                        a.replica == replica.name
                        and a.outcome == "breaker-open"
                        for a in attempts
                    ):
                        record = AttemptRecord(
                            replica.name, slot.attempts, "breaker-open", 0.0
                        )
                        attempts.append(record)
                        self._count_attempt(record)
                        slot.flags.append("breaker-open")
                    continue
                made_attempt = True
                slot.attempts += 1
                self._attempt(
                    replica,
                    slot,
                    true_heading_deg,
                    field_magnitude_t,
                    attempts,
                    deadline,
                )
                if (
                    slot.healthy is None
                    and slot.attempts >= cfg.max_attempts_per_replica
                ):
                    slot.exhausted = True
            if not made_attempt:
                if refused_this_round == len(pending) and all(
                    state[r.name].healthy is None for r in pool
                ):
                    # Nothing answered yet and every live breaker is
                    # open: sleeping until a cool-down expires is the
                    # only move left.
                    self._await_half_open(pool, deadline)
                    if self.clock.now() >= deadline:
                        break
                else:
                    break
            elif any(
                state[r.name].healthy is None and not state[r.name].exhausted
                for r in pool
            ):
                # At least one replica still owes a retry: back off
                # before the next round so a transient fault gets air.
                delay = backoff.next_delay()
                self.clock.sleep(min(delay, max(0.0, deadline - self.clock.now())))

        return self._conclude(pool, state, attempts, start)

    def _attempt(
        self,
        replica: CompassReplica,
        slot: _Collected,
        true_heading_deg: float,
        field_magnitude_t: float,
        attempts: List[AttemptRecord],
        deadline: float,
    ) -> None:
        latency = replica.draw_latency()
        # The reply budget is the attempt timeout, further truncated by
        # the request deadline: a reply the deadline would have cut off
        # is as lost as a timed-out one.
        budget = min(ATTEMPT_TIMEOUT_S, max(0.0, deadline - self.clock.now()))
        charged = min(latency, budget)
        with self.observer.span(
            f"{STAGE_ATTEMPT}.{replica.index}.{slot.attempts}",
            replica=replica.name,
        ) as span:
            outcome = "ok"
            detail = ""
            measurement: Optional[HeadingMeasurement] = None
            try:
                measurement = replica.measure(
                    true_heading_deg, field_magnitude_t
                )
            except ReproError as error:
                outcome = "fault"
                detail = f"{type(error).__name__}: {error}"
            self.clock.sleep(charged)
            if outcome == "ok" and latency > budget:
                outcome = "timeout"
                detail = (
                    f"reply took {latency * 1e3:.1f} ms, budget "
                    f"{budget * 1e3:.1f} ms"
                )
                measurement = None
            if measurement is not None and measurement.degraded:
                outcome = "degraded"
                detail = ",".join(measurement.health.flags)
                slot.degraded = measurement
            elif measurement is not None:
                slot.healthy = measurement
            span.set(outcome=outcome)
            if outcome in ("fault", "timeout"):
                replica.breaker.record_failure()
                slot.flags.append(f"{outcome}: {detail}")
            elif outcome == "degraded":
                # A health-degraded reply is a breaker failure (the
                # check outcome drives ejection) but stays available as
                # a second-class vote.
                replica.breaker.record_failure()
                slot.flags.append(f"degraded: {detail}")
            else:
                replica.breaker.record_success()
        record = AttemptRecord(
            replica.name, slot.attempts, outcome, charged, detail
        )
        attempts.append(record)
        self._count_attempt(record)

    def _await_half_open(
        self, pool: List[CompassReplica], deadline: float
    ) -> None:
        """Sleep until the earliest breaker cool-down expiry (or deadline)."""
        expiries = [
            replica.breaker.open_until
            for replica in pool
            if replica.breaker.state is BreakerState.OPEN
        ]
        if not expiries:
            return
        wake = min(min(expiries), deadline)
        gap = wake - self.clock.now()
        if gap > 0.0:
            self.clock.sleep(gap)

    # -- verdicts --------------------------------------------------------------

    def _conclude(
        self,
        pool: List[CompassReplica],
        state: Dict[str, _Collected],
        attempts: List[AttemptRecord],
        start: float,
    ) -> ServiceResponse:
        real_attempts = [a for a in attempts if a.outcome != "breaker-open"]
        healthy = [
            (r.name, state[r.name].healthy)
            for r in pool
            if state[r.name].healthy is not None
        ]
        degraded = [
            (r.name, state[r.name].degraded)
            for r in pool
            if state[r.name].healthy is None
            and state[r.name].degraded is not None
        ]
        flags: List[str] = []
        for replica in pool:
            flags.extend(
                f"{replica.name}: {flag}" for flag in state[replica.name].flags
            )
        if len(pool) < len(self.replicas):
            # A stepped-down vote pool is visible provenance: the
            # clean-sweep test compares against the *full* pool, so this
            # request can never be labelled authoritative.
            flags.append(
                f"quorum-stepdown: consulted {len(pool)} of "
                f"{len(self.replicas)} replicas"
            )
        # Only breaker refusals and no measurement at all: the pool is
        # open, not merely short of votes.
        if attempts and not real_attempts:
            raise CircuitOpenError(
                "every replica's circuit breaker is open; request "
                "fast-failed without a measurement"
            )
        return self._verdict(
            healthy,
            degraded,
            flags,
            attempts,
            attempt_count=len(real_attempts),
            elapsed_s=self.clock.now() - start,
            tally=f", attempts {len(real_attempts)}",
            clean_attempts=len(real_attempts) == len(self.replicas)
            and all(a.outcome == "ok" for a in real_attempts),
        )

    def _verdict(
        self,
        healthy: List[Tuple[str, HeadingMeasurement]],
        degraded: List[Tuple[str, HeadingMeasurement]],
        flags: List[str],
        attempts: List[AttemptRecord],
        *,
        attempt_count: int,
        elapsed_s: float,
        prefix: str = "",
        tally: str = "",
        clean_attempts: bool = True,
    ) -> ServiceResponse:
        """The one verdict rule, shared by the scalar and scene paths.

        ``healthy`` and ``degraded`` are ``(replica name, measurement)``
        votes; ``flags`` already holds the caller's provenance and gains
        the vote's outlier flags.  ``prefix`` leads and ``tally`` ends
        the quorum messages; ``clean_attempts`` is the caller's own
        condition for an authoritative answer.
        """
        cfg = self.config
        # Healthy headings alone when they reach quorum; health-degraded
        # ones only ever top up a short pool, and their use always
        # demotes the verdict.
        second_class = False
        voters = list(healthy)
        if len(healthy) < cfg.quorum and degraded:
            voters = healthy + degraded
            second_class = True
        if len(voters) < cfg.quorum:
            raise QuorumError(
                f"{prefix}collected {len(voters)} vote-eligible headings, "
                f"quorum needs {cfg.quorum} "
                f"(healthy {len(healthy)}, degraded {len(degraded)}{tally})"
            )

        vote = vote_headings([m.heading_deg for _, m in voters])
        if len(vote.inliers) < cfg.quorum:
            raise QuorumError(
                f"{prefix}only {len(vote.inliers)} of {len(voters)} headings "
                f"agree within {vote.threshold_deg:.2f} deg; quorum needs "
                f"{cfg.quorum}"
            )
        for index in vote.outliers:
            flags.append(
                f"{voters[index][0]}: vote-outlier "
                f"({voters[index][1].heading_deg:.2f} deg rejected)"
            )
        # A MAD-widened threshold means the pool itself disagrees: the
        # vote rejected nothing because the spread hid the outliers.
        spread = vote.threshold_deg > VOTE_OUTLIER_DEG
        if spread:
            flags.append(
                f"vote-spread: threshold widened to {vote.threshold_deg:.2f} "
                f"deg (MAD {vote.mad_deg:.2f} deg)"
            )

        clean_sweep = (
            len(healthy) == len(self.replicas)
            and vote.unanimous
            and not spread
            and not second_class
            and clean_attempts
        )
        verdict = (
            ServiceVerdict.AUTHORITATIVE
            if clean_sweep
            else ServiceVerdict.QUORUM_DEGRADED
        )
        field_estimates = [
            voters[i][1].field_estimate_a_per_m for i in vote.inliers
        ]
        field_estimate = sorted(field_estimates)[len(field_estimates) // 2]
        self._count_request(
            verdict, attempt_count, elapsed_s, vote.dissent_deg
        )
        return ServiceResponse(
            heading_deg=vote.heading_deg,
            verdict=verdict,
            field_estimate_a_per_m=field_estimate,
            votes=tuple(m.heading_deg for _, m in voters),
            vote=vote,
            attempts=tuple(attempts),
            elapsed_s=elapsed_s,
            flags=tuple(flags),
        )

__all__ = [
    "AttemptRecord",
    "HeadingService",
    "ServiceConfig",
    "ServiceResponse",
    "ServiceVerdict",
]
