"""The sharded heading fleet: admission, coalescing, brownout, dispatch.

:class:`HeadingFleet` is the async facade in front of ``shards``
independent :class:`~repro.service.HeadingService` workers.  One
request flows through:

1. **brownout sense** — fold queue occupancy into the degradation
   controller (:class:`~repro.fleet.config.BrownoutController`);
2. **token bucket** — shed immediately (``reason="rate-limit"``) when
   the admission rate is exhausted;
3. **quantize** — snap (heading, field) onto the measurement grid and
   derive the scene key (:mod:`repro.fleet.cache`); the backend measures
   *at the snapped point*, which is what makes cached, coalesced and
   fresh answers bit-identical;
4. **cache** — an authoritative answer for this scene returns without
   touching a shard (optionally re-verified bit-exactly by the
   conformance guard every ``guard_every`` hits);
5. **coalesce** — an in-flight measurement of the same scene adopts the
   leader's future instead of enqueueing a duplicate;
6. **shard queue** — consistent-hash on the caller's key, then offer to
   that shard's bounded queue: dead work is evicted
   (``reason="deadline"``) and a still-full queue sheds the newcomer
   (``reason="queue-full"``);
7. **dispatch** — the shard worker re-checks the deadline, steps the
   vote pool down to the quorum at brownout L2 (verdict degrades to
   ``QUORUM_DEGRADED`` — the step-down is never silent), runs the
   measurement on the shard's private clock and charges the elapsed
   service time back to the global timeline.

Every shed path raises :class:`~repro.errors.OverloadError` with its
rung's reason — overload is an explicit, typed outcome, never an
unbounded queue.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import DivergenceError, OverloadError, ReproError
from ..observe import (
    LATENCY_BUCKETS_S,
    M_FLEET_BROWNOUT,
    M_FLEET_BROWNOUT_SHIFTS,
    M_FLEET_COALESCE,
    M_FLEET_LATENCY,
    M_FLEET_QUEUE_DEPTH,
    M_FLEET_REQUESTS,
    M_FLEET_SHED,
    build_observer,
)
from ..observe.trace import (
    NULL_SPAN,
    STAGE_FLEET_DISPATCH,
    STAGE_FLEET_REQUEST,
)
from ..replay.format import config_fingerprint
from ..service import HeadingService
from ..service.clock import SimulatedClock
from ..service.service import ServiceVerdict
from .admission import QueueItem, TokenBucket
from .cache import (
    DEFAULT_FIELD_QUANTUM_UT,
    DEFAULT_HEADING_QUANTUM_DEG,
    FLEET_CACHE_CAPACITY,
    CacheEntry,
    HeadingCache,
    quantize_field,
    quantize_heading,
    scene_key,
)
from .config import BROWNOUT_SAMPLE_EVERY, BrownoutController, FleetConfig
from .hashing import HashRing
from .kernel import Kernel, Scheduler
from .shard import FleetShard

#: Worker-stop sentinel pushed through the shard queues by :meth:`stop`.
_STOP = object()

#: ``FleetResponse.source`` values.
SOURCE_MEASURED = "measured"
SOURCE_CACHE = "cache"
SOURCE_COALESCED = "coalesced"


@dataclass(frozen=True)
class FleetResponse:
    """One served fleet request with its provenance."""

    key: str
    scene: str
    heading_deg: float
    field_estimate_a_per_m: float
    verdict: str
    source: str  # measured | cache | coalesced
    shard: int
    latency_s: float
    brownout_level: int

    @property
    def authoritative(self) -> bool:
        return self.verdict == ServiceVerdict.AUTHORITATIVE.value


class HeadingFleet:
    """Async sharded facade over a pool of heading services."""

    def __init__(
        self,
        config: FleetConfig = FleetConfig(),
        scheduler: Optional[Scheduler] = None,
    ):
        self.config = config
        self.scheduler = scheduler if scheduler is not None else Kernel()
        self.observer = build_observer(config.observe)
        self.fingerprint = config_fingerprint(config.service.compass)
        root = np.random.SeedSequence(config.seed)
        shard_seeds = root.spawn(config.shards)
        self.shards: List[FleetShard] = [
            FleetShard(
                index,
                config,
                int(shard_seeds[index].generate_state(1)[0]),
                self.scheduler,
            )
            for index in range(config.shards)
        ]
        self.ring = HashRing(config.shards, config.vnodes)
        # The scheduler satisfies the bucket's clock surface (`now()`).
        self.bucket = TokenBucket(config.admission, self.scheduler)
        self.cache: Optional[HeadingCache] = (
            HeadingCache(FLEET_CACHE_CAPACITY) if config.cache_enabled else None
        )
        self._inflight: Dict[str, Any] = {}
        self.brownout = BrownoutController(start_s=self.scheduler.now())
        self._reference: Optional[HeadingService] = None
        self._workers: List[Any] = []
        self._started = False
        self._obs_tick = 0
        self.served = 0
        self.failed = 0
        self.shed: Dict[str, int] = {
            "rate-limit": 0,
            "queue-full": 0,
            "deadline": 0,
        }
        self.guard_checks = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Spawn one worker task per shard (idempotent)."""
        if self._started:
            return
        self._started = True
        self._workers = [
            self.scheduler.spawn(
                self._serve_shard(shard), name=f"fleet-worker-{shard.index}"
            )
            for shard in self.shards
        ]

    async def stop(self) -> None:
        """Drain the shard queues, stop every worker, join them."""
        if not self._started:
            return
        for shard in self.shards:
            shard.queue.push_control(_STOP)
        for worker in self._workers:
            await worker.future
        self._workers = []
        self._started = False

    # -- observability helpers -------------------------------------------------

    def _sampled(self) -> bool:
        """Whether *optional* observability runs for this event.

        Brownout L1 is exactly this switch: counters stay exact, but
        spans, gauges and histograms drop to 1-in-
        :data:`~repro.fleet.config.BROWNOUT_SAMPLE_EVERY`.
        """
        if self.brownout.level == 0:
            return True
        self._obs_tick += 1
        return self._obs_tick % BROWNOUT_SAMPLE_EVERY == 0

    def _sense_brownout(self) -> int:
        occupancy = sum(s.occupancy for s in self.shards) / len(self.shards)
        now = self.scheduler.now()
        before = self.brownout.level
        level = self.brownout.observe(occupancy, now)
        metrics = self.observer.metrics
        if metrics is not None:
            if level != before:
                metrics.counter(
                    M_FLEET_BROWNOUT_SHIFTS,
                    "brownout ladder transitions, by target level",
                    ("to",),
                ).inc(to=str(level))
            if self._sampled():
                metrics.gauge(
                    M_FLEET_BROWNOUT, "current brownout level (0..2)"
                ).set(float(level))
        return level

    def _count_request(self, outcome: str) -> None:
        metrics = self.observer.metrics
        if metrics is not None:
            metrics.counter(
                M_FLEET_REQUESTS, "fleet requests, by outcome", ("outcome",)
            ).inc(outcome=outcome)

    def _count_shed(self, reason: str) -> None:
        self.shed[reason] = self.shed.get(reason, 0) + 1
        self._count_request("shed")
        metrics = self.observer.metrics
        if metrics is not None:
            metrics.counter(
                M_FLEET_SHED, "requests shed, by overload reason", ("reason",)
            ).inc(reason=reason)

    def _count_coalesce(self, event: str) -> None:
        metrics = self.observer.metrics
        if metrics is not None:
            metrics.counter(
                M_FLEET_COALESCE,
                "cache/coalesce events on the scene-key path",
                ("event",),
            ).inc(event=event)

    def _note_served(self, source: str, latency_s: float, sampled: bool) -> None:
        self.served += 1
        self._count_request("served")
        metrics = self.observer.metrics
        if metrics is not None and sampled:
            metrics.histogram(
                M_FLEET_LATENCY,
                "end-to-end fleet latency [s], by response source",
                ("source",),
                buckets=LATENCY_BUCKETS_S,
            ).observe(latency_s, source=source)

    def _note_queue_depth(self, shard: FleetShard, sampled: bool) -> None:
        metrics = self.observer.metrics
        if metrics is not None and sampled:
            metrics.gauge(
                M_FLEET_QUEUE_DEPTH, "shard queue depth", ("shard",)
            ).set(float(shard.queue.depth), shard=shard.name)

    # -- the conformance guard -------------------------------------------------

    def _reference_service(self) -> HeadingService:
        """A clean, chaos-free service the guard measures against."""
        if self._reference is None:
            self._reference = HeadingService(
                dataclasses.replace(self.config.service, seed=self.config.seed),
                clock=SimulatedClock(),
            )
        return self._reference

    def _guard_entry(self, scene: str, entry: CacheEntry) -> None:
        """Re-measure every Nth cache hit; bit-exact or it's an error."""
        every = self.config.guard_every
        if every <= 0 or self.cache is None or self.cache.hits % every != 0:
            return
        fresh = self._reference_service().measure_heading(
            entry.heading_input_deg, entry.field_input_t
        )
        self.guard_checks += 1
        if (
            fresh.heading_deg != entry.heading_deg
            or fresh.field_estimate_a_per_m != entry.field_estimate_a_per_m
        ):
            raise DivergenceError(
                f"conformance guard: cached response for scene {scene!r} "
                f"diverged from a fresh measurement "
                f"(cached heading {entry.heading_deg!r}, "
                f"fresh {fresh.heading_deg!r})"
            )

    # -- the request path ------------------------------------------------------

    async def submit(
        self,
        key: str,
        true_heading_deg: float,
        field_magnitude_t: float = 50.0e-6,
        *,
        deadline_s: Optional[float] = None,
    ) -> FleetResponse:
        """Serve one heading request through the fleet.

        Raises :class:`~repro.errors.OverloadError` when the request is
        shed (``reason`` says which rung), and propagates the service's
        own :class:`~repro.errors.ReproError` subclasses when the
        backing shard fails the measurement.
        """
        cfg = self.config
        scheduler = self.scheduler
        arrival = scheduler.now()
        level = self._sense_brownout()
        sampled = self._sampled()
        span = (
            self.observer.span(STAGE_FLEET_REQUEST, key=key)
            if sampled
            else NULL_SPAN
        )
        with span as root:
            if not self.bucket.try_admit():
                self._count_shed("rate-limit")
                root.set(outcome="shed", reason="rate-limit")
                raise OverloadError(
                    f"admission rate exceeded; request {key!r} shed",
                    reason="rate-limit",
                )
            heading_bin, snapped_heading = quantize_heading(
                true_heading_deg, DEFAULT_HEADING_QUANTUM_DEG
            )
            field_bin, snapped_field = quantize_field(
                field_magnitude_t, DEFAULT_FIELD_QUANTUM_UT
            )
            scene = scene_key(self.fingerprint, heading_bin, field_bin)
            shard_index = self.ring.lookup(key)
            shard = self.shards[shard_index]
            root.set(scene=scene, shard=shard.name)

            if self.cache is not None:
                entry = self.cache.get(scene)
                if entry is not None:
                    self._count_coalesce("cache-hit")
                    self._guard_entry(scene, entry)
                    latency = scheduler.now() - arrival
                    self._note_served(SOURCE_CACHE, latency, sampled)
                    root.set(outcome="served", source=SOURCE_CACHE)
                    return self._response(
                        key, scene, entry, SOURCE_CACHE, shard_index,
                        latency, level,
                    )
                self._count_coalesce("cache-miss")

            leader_future = None
            if cfg.coalesce_enabled:
                pending = self._inflight.get(scene)
                if pending is not None:
                    self._count_coalesce("follower")
                    entry = await self._join_leader(pending, root)
                    latency = scheduler.now() - arrival
                    self._note_served(SOURCE_COALESCED, latency, sampled)
                    root.set(outcome="served", source=SOURCE_COALESCED)
                    return self._response(
                        key, scene, entry, SOURCE_COALESCED, shard_index,
                        latency, self.brownout.level,
                    )
                leader_future = scheduler.create_future()
                self._inflight[scene] = leader_future
                self._count_coalesce("leader")

            deadline = arrival + (
                cfg.deadline_s if deadline_s is None else deadline_s
            )
            item = QueueItem(
                key=key,
                heading_deg=snapped_heading,
                field_magnitude_t=snapped_field,
                deadline=deadline,
                enqueued_at=arrival,
                future=scheduler.create_future(),
            )
            admitted, evicted = shard.queue.offer(
                item, scheduler.now(), shard.est_service_s
            )
            for victim in evicted:
                victim.future.set_exception(
                    OverloadError(
                        f"{shard.name}: queued request {victim.key!r} can no "
                        f"longer meet its deadline; evicted",
                        reason="deadline",
                    )
                )
            if not admitted:
                error = OverloadError(
                    f"{shard.name}: queue full ({shard.queue.capacity}); "
                    f"request {key!r} shed",
                    reason="queue-full",
                )
                self._settle_leader(scene, leader_future, error=error)
                self._count_shed("queue-full")
                root.set(outcome="shed", reason="queue-full")
                raise error
            self._note_queue_depth(shard, sampled)

            try:
                response = await item.future
            except OverloadError as error:
                self._settle_leader(scene, leader_future, error=error)
                self._count_shed(error.reason)
                root.set(outcome="shed", reason=error.reason)
                raise
            except ReproError as error:
                self._settle_leader(scene, leader_future, error=error)
                self.failed += 1
                self._count_request("failed")
                root.set(outcome="failed", error=type(error).__name__)
                raise

            entry = CacheEntry(
                heading_deg=response.heading_deg,
                field_estimate_a_per_m=response.field_estimate_a_per_m,
                verdict=response.verdict.value,
                heading_input_deg=snapped_heading,
                field_input_t=snapped_field,
            )
            if (
                self.cache is not None
                and response.verdict is ServiceVerdict.AUTHORITATIVE
            ):
                self.cache.put(scene, entry)
            self._settle_leader(scene, leader_future, entry=entry)
            latency = scheduler.now() - arrival
            self._note_served(SOURCE_MEASURED, latency, sampled)
            root.set(
                outcome="served",
                source=SOURCE_MEASURED,
                verdict=response.verdict.value,
            )
            return self._response(
                key, scene, entry, SOURCE_MEASURED, shard_index, latency,
                self.brownout.level,
            )

    async def _join_leader(self, pending: Any, root) -> CacheEntry:
        """Await the in-flight leader; re-label its failure as ours."""
        try:
            return await pending
        except OverloadError as error:
            self._count_shed(error.reason)
            root.set(outcome="shed", reason=error.reason, coalesced=True)
            raise
        except ReproError as error:
            self.failed += 1
            self._count_request("failed")
            root.set(outcome="failed", error=type(error).__name__)
            raise

    def _settle_leader(
        self,
        scene: str,
        future: Any,
        entry: Optional[CacheEntry] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Resolve (and unregister) this request's coalescing slot."""
        if future is None:
            return
        if self._inflight.get(scene) is future:
            del self._inflight[scene]
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(entry)

    def _response(
        self,
        key: str,
        scene: str,
        entry: CacheEntry,
        source: str,
        shard_index: int,
        latency_s: float,
        level: int,
    ) -> FleetResponse:
        return FleetResponse(
            key=key,
            scene=scene,
            heading_deg=entry.heading_deg,
            field_estimate_a_per_m=entry.field_estimate_a_per_m,
            verdict=entry.verdict,
            source=source,
            shard=shard_index,
            latency_s=latency_s,
            brownout_level=level,
        )

    # -- the shard worker ------------------------------------------------------

    async def _serve_shard(self, shard: FleetShard) -> None:
        cfg = self.config
        scheduler = self.scheduler
        while True:
            item = await shard.queue.get()
            if item is _STOP:
                return
            now = scheduler.now()
            remaining = item.deadline - now
            if remaining <= 0.0:
                item.future.set_exception(
                    OverloadError(
                        f"{shard.name}: deadline expired before dispatch of "
                        f"{item.key!r}; shed",
                        reason="deadline",
                    )
                )
                continue
            # Brownout L2: step the vote pool down to the quorum.  The
            # service degrades the verdict itself (no clean sweep with a
            # reduced pool), so the step-down is structurally loud.
            max_replicas = (
                cfg.service.quorum if self.brownout.level >= 2 else None
            )
            shard.sync(now)
            started = shard.clock.now()
            span = (
                self.observer.span(
                    STAGE_FLEET_DISPATCH, shard=shard.name, key=item.key
                )
                if self._sampled()
                else NULL_SPAN
            )
            with span as dispatch:
                try:
                    response = shard.service.measure_heading(
                        item.heading_deg,
                        item.field_magnitude_t,
                        max_replicas=max_replicas,
                        deadline_s=min(cfg.service.deadline_s, remaining),
                    )
                except ReproError as error:
                    elapsed = shard.clock.now() - started
                    shard.note_service_time(elapsed)
                    shard.failed += 1
                    dispatch.set(
                        outcome="failed", error=type(error).__name__
                    )
                    if elapsed > 0.0:
                        await scheduler.sleep(elapsed)
                    item.future.set_exception(error)
                    continue
                elapsed = shard.clock.now() - started
                shard.note_service_time(elapsed)
                shard.served += 1
                dispatch.set(
                    outcome="served",
                    verdict=response.verdict.value,
                    service_ms=round(elapsed * 1e3, 4),
                )
                if elapsed > 0.0:
                    # Charge the measurement's service time to the global
                    # timeline; other shards keep progressing in parallel.
                    await scheduler.sleep(elapsed)
                item.future.set_result(response)

    # -- diagnostics -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """One JSON-friendly snapshot of the fleet's counters."""
        return {
            "served": self.served,
            "failed": self.failed,
            "shed": dict(self.shed),
            "brownout_level": self.brownout.level,
            "brownout_transitions": list(self.brownout.transitions),
            "bucket": {
                "admitted": self.bucket.admitted,
                "refused": self.bucket.refused,
            },
            "cache": (
                {
                    "hits": self.cache.hits,
                    "misses": self.cache.misses,
                    "evictions": self.cache.evictions,
                    "size": len(self.cache),
                    "hit_rate": round(self.cache.hit_rate, 6),
                }
                if self.cache is not None
                else None
            ),
            "guard_checks": self.guard_checks,
            "shards": [
                {
                    "name": shard.name,
                    "served": shard.served,
                    "failed": shard.failed,
                    "queue_evicted": shard.queue.evicted,
                    "queue_rejected": shard.queue.rejected,
                    "queue_peak_depth": shard.queue.peak_depth,
                    "est_service_ms": round(shard.est_service_s * 1e3, 4),
                }
                for shard in self.shards
            ],
        }


__all__ = [
    "FleetResponse",
    "HeadingFleet",
    "SOURCE_CACHE",
    "SOURCE_COALESCED",
    "SOURCE_MEASURED",
]
