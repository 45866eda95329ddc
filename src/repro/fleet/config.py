"""Fleet configuration, SLO definitions and the brownout controller.

The overload ladder, from cheapest defence to deepest degradation:

1. **rate-limit** (token bucket) — refuse arrivals beyond the admission
   rate before they cost anything;
2. **queue-full / deadline eviction** — bound the waiting room, drop
   dead work (see :mod:`repro.fleet.admission`);
3. **brownout L1** — shed *optional observability work*: latency
   histograms, gauges and spans are sampled 1-in-
   :data:`BROWNOUT_SAMPLE_EVERY` instead of per-request (counters stay
   exact);
4. **brownout L2** — shed *optional confirmation work*: the vote pool
   steps down from N replicas toward the quorum K
   (``HeadingService.measure_heading(max_replicas=K)``), trading
   redundancy for capacity.  A stepped-down response is **always**
   labelled ``QUORUM_DEGRADED`` — never silently authoritative.

Brownout level is driven by an EWMA of queue occupancy with hysteresis
(enter thresholds above exit thresholds, plus a minimum dwell time) so
the fleet neither flaps between levels nor stays degraded after load
subsides.  Everything reads the injected clock — deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..core.compass import CompassConfig
from ..core.health import HealthConfig
from ..errors import ConfigurationError
from ..observe import Observability
from ..service import ServiceConfig
from .admission import TokenBucketConfig

#: The fleet's default compass: strict health supervision (resilience
#: lives in the service layer) on the default certified closed-form
#: fast path, which is what makes thousands of simulated devices per
#: second affordable.
FLEET_COMPASS = CompassConfig(health=HealthConfig(enabled=True))

# Brownout ladder thresholds.  Levels: 0 normal, 1 observability
# sampling shed, 2 quorum step-down.  The enter/exit thresholds are on
# the queue-occupancy EWMA (0..1); each exit sits below its enter so the
# controller cannot flap on a boundary load.
#: Occupancy EWMA at or above which level 0 climbs to level 1.
BROWNOUT_ENTER_L1 = 0.50
#: Occupancy EWMA at or above which level 1 climbs to level 2.
BROWNOUT_ENTER_L2 = 0.75
#: Occupancy EWMA at or below which level 1 falls back to level 0.
BROWNOUT_EXIT_L1 = 0.15
#: Occupancy EWMA at or below which level 2 falls back to level 1.
BROWNOUT_EXIT_L2 = 0.45
#: EWMA smoothing factor per occupancy sample.
BROWNOUT_ALPHA = 0.08
#: Minimum time between two level changes [s].
BROWNOUT_MIN_DWELL_S = 0.25
#: Level-1 observability sampling period: 1 request in this many.
BROWNOUT_SAMPLE_EVERY = 8


@dataclass(frozen=True)
class FleetSLO:
    """The promises the fleet is gated on: fixed values (``init=False``).

    Attributes
    ----------
    p99_latency_s:
        Admitted requests must complete (queue wait + service) inside
        this at p99 — *at every load level*.  Past saturation the fleet
        sheds rather than letting admitted latency blow through this.
    availability_floor:
        Minimum served fraction at rated load (shed + failed count
        against it).

    The third promise, zero silent-wrong at every load level, is the
    1° spec of :mod:`repro.trust`.
    """

    p99_latency_s: float = field(default=0.30, init=False)
    availability_floor: float = field(default=0.99, init=False)


class BrownoutController:
    """EWMA-with-hysteresis ladder over queue occupancy (the
    ``BROWNOUT_*`` thresholds)."""

    def __init__(self, start_s: float = 0.0):
        self.level = 0
        self.ewma = 0.0
        self._changed_at = start_s
        #: ``(sim_time_s, new_level)`` transition log for reports/tests.
        self.transitions: List[Tuple[float, int]] = []

    def observe(self, occupancy: float, now: float) -> int:
        """Fold one occupancy sample in; returns the (new) level."""
        self.ewma += BROWNOUT_ALPHA * (occupancy - self.ewma)
        if now - self._changed_at < BROWNOUT_MIN_DWELL_S:
            return self.level
        target = self.level
        if self.level == 0 and self.ewma >= BROWNOUT_ENTER_L1:
            target = 1
        elif self.level == 1:
            if self.ewma >= BROWNOUT_ENTER_L2:
                target = 2
            elif self.ewma <= BROWNOUT_EXIT_L1:
                target = 0
        elif self.level == 2 and self.ewma <= BROWNOUT_EXIT_L2:
            target = 1
        if target != self.level:
            self.level = target
            self._changed_at = now
            self.transitions.append((now, target))
        return self.level


@dataclass(frozen=True)
class FleetConfig:
    """Everything configurable about the sharded heading fleet.

    Attributes
    ----------
    shards:
        Worker count; each shard owns an independent
        :class:`~repro.service.HeadingService` pool on its own service
        clock, so shards progress in parallel simulated time.
    vnodes:
        Virtual nodes per shard on the consistent-hash ring (fixed:
        ``init=False``, like ``slo``).
    service:
        Per-shard service configuration; each shard gets it re-seeded
        from the fleet seed.
    seed:
        Root seed — shard seeding and every fleet policy derive from it.
    admission:
        Token-bucket front door (rate + burst).
    queue_depth:
        Per-shard bounded queue capacity.
    deadline_s:
        Default end-to-end request deadline (queue wait + service).
    cache_enabled, coalesce_enabled:
        The scene-key cache and in-flight coalescing switches.
    guard_every:
        Conformance guard cadence: every Nth cache hit is re-measured
        on a clean reference service and compared **bit-exactly**
        against the cached entry (``0`` disables).  Requires the
        deterministic (noiseless) compass — the default.
    slo:
        The gates the soak asserts.
    observe:
        Fleet-level observability (spans + metrics across all shards).
    """

    shards: int = 4
    vnodes: int = field(default=64, init=False)
    service: ServiceConfig = field(
        default_factory=lambda: ServiceConfig(compass=FLEET_COMPASS)
    )
    seed: int = 0
    admission: TokenBucketConfig = TokenBucketConfig()
    queue_depth: int = 32
    deadline_s: float = 0.25
    cache_enabled: bool = True
    coalesce_enabled: bool = True
    guard_every: int = 0
    slo: FleetSLO = field(default=FleetSLO(), init=False)
    observe: Observability = Observability()

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError("fleet needs at least one shard")
        if self.queue_depth < 1:
            raise ConfigurationError("queue depth must be >= 1")
        if self.deadline_s <= 0.0:
            raise ConfigurationError("fleet deadline must be positive")
        if self.guard_every < 0:
            raise ConfigurationError("guard_every must be >= 0")


__all__ = [
    "BROWNOUT_ALPHA",
    "BROWNOUT_ENTER_L1",
    "BROWNOUT_ENTER_L2",
    "BROWNOUT_EXIT_L1",
    "BROWNOUT_EXIT_L2",
    "BROWNOUT_MIN_DWELL_S",
    "BROWNOUT_SAMPLE_EVERY",
    "BrownoutController",
    "FLEET_COMPASS",
    "FleetConfig",
    "FleetSLO",
]
