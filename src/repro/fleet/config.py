"""Fleet configuration, SLO definitions and the brownout controller.

The overload ladder, from cheapest defence to deepest degradation:

1. **rate-limit** (token bucket) — refuse arrivals beyond the admission
   rate before they cost anything;
2. **queue-full / deadline eviction** — bound the waiting room, drop
   dead work (see :mod:`repro.fleet.admission`);
3. **brownout L1** — shed *optional observability work*: latency
   histograms, gauges and spans are sampled 1-in-``sample_every``
   instead of per-request (counters stay exact);
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
from ..units import TARGET_ACCURACY_DEG
from .admission import TokenBucketConfig
from .cache import DEFAULT_FIELD_QUANTUM_UT, DEFAULT_HEADING_QUANTUM_DEG

#: The fleet's default compass: strict health supervision (resilience
#: lives in the service layer) on the default certified closed-form
#: fast path, which is what makes thousands of simulated devices per
#: second affordable.
FLEET_COMPASS = CompassConfig(health=HealthConfig(enabled=True))


@dataclass(frozen=True)
class FleetSLO:
    """The promises the fleet is gated on.

    Attributes
    ----------
    p99_latency_s:
        Admitted requests must complete (queue wait + service) inside
        this at p99 — *at every load level*.  Past saturation the fleet
        sheds rather than letting admitted latency blow through this.
    availability_floor:
        Minimum served fraction at rated load (shed + failed count
        against it).
    tolerance_deg:
        The paper's 1° accuracy spec: a served error beyond this is
        *wrong*, and wrong + ``AUTHORITATIVE`` is silent-wrong — the
        one count that must be zero at every load level.
    """

    p99_latency_s: float = 0.30
    availability_floor: float = 0.99
    tolerance_deg: float = TARGET_ACCURACY_DEG

    def __post_init__(self) -> None:
        if self.p99_latency_s <= 0.0:
            raise ConfigurationError("p99 SLO must be positive")
        if not 0.0 <= self.availability_floor <= 1.0:
            raise ConfigurationError("availability floor must be in [0, 1]")


@dataclass(frozen=True)
class BrownoutConfig:
    """Hysteresis thresholds of the graceful-degradation ladder.

    Levels: 0 normal, 1 observability sampling shed, 2 quorum
    step-down.  ``enter_*`` thresholds are on the queue-occupancy EWMA
    (0..1); each ``exit_*`` must sit below its ``enter_*`` so the
    controller cannot flap on a boundary load.
    """

    enter_l1: float = 0.50
    enter_l2: float = 0.75
    exit_l1: float = 0.15
    exit_l2: float = 0.45
    alpha: float = 0.08
    min_dwell_s: float = 0.25
    sample_every: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.exit_l1 < self.enter_l1 <= 1.0:
            raise ConfigurationError("need 0 < exit_l1 < enter_l1 <= 1")
        if not self.exit_l2 < self.enter_l2 <= 1.0:
            raise ConfigurationError("need exit_l2 < enter_l2 <= 1")
        if not self.enter_l1 <= self.enter_l2:
            raise ConfigurationError("enter_l1 must not exceed enter_l2")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("EWMA alpha must be in (0, 1]")
        if self.sample_every < 1:
            raise ConfigurationError("sample_every must be >= 1")


class BrownoutController:
    """EWMA-with-hysteresis ladder over queue occupancy."""

    def __init__(self, config: BrownoutConfig, start_s: float = 0.0):
        self.config = config
        self.level = 0
        self.ewma = 0.0
        self._changed_at = start_s
        #: ``(sim_time_s, new_level)`` transition log for reports/tests.
        self.transitions: List[Tuple[float, int]] = []

    def observe(self, occupancy: float, now: float) -> int:
        """Fold one occupancy sample in; returns the (new) level."""
        cfg = self.config
        self.ewma += cfg.alpha * (occupancy - self.ewma)
        if now - self._changed_at < cfg.min_dwell_s:
            return self.level
        target = self.level
        if self.level == 0 and self.ewma >= cfg.enter_l1:
            target = 1
        elif self.level == 1:
            if self.ewma >= cfg.enter_l2:
                target = 2
            elif self.ewma <= cfg.exit_l1:
                target = 0
        elif self.level == 2 and self.ewma <= cfg.exit_l2:
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
        Virtual nodes per shard on the consistent-hash ring.
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
    est_alpha:
        EWMA smoothing for the per-shard service-time estimate that
        drives deadline eviction.
    heading_quantum_deg, field_quantum_ut:
        Measurement-grid quanta (see :mod:`repro.fleet.cache`).
    cache_capacity, cache_enabled, coalesce_enabled:
        The scene-key cache and in-flight coalescing switches.
    guard_every:
        Conformance guard cadence: every Nth cache hit is re-measured
        on a clean reference service and compared **bit-exactly**
        against the cached entry (``0`` disables).  Requires the
        deterministic (noiseless) compass — the default.
    brownout:
        Graceful-degradation thresholds.
    slo:
        The gates the soak asserts.
    observe:
        Fleet-level observability (spans + metrics across all shards).
    """

    shards: int = 4
    vnodes: int = 64
    service: ServiceConfig = field(
        default_factory=lambda: ServiceConfig(compass=FLEET_COMPASS)
    )
    seed: int = 0
    admission: TokenBucketConfig = TokenBucketConfig()
    queue_depth: int = 32
    deadline_s: float = 0.25
    est_alpha: float = 0.2
    heading_quantum_deg: float = DEFAULT_HEADING_QUANTUM_DEG
    field_quantum_ut: float = DEFAULT_FIELD_QUANTUM_UT
    cache_capacity: int = 4096
    cache_enabled: bool = True
    coalesce_enabled: bool = True
    guard_every: int = 0
    brownout: BrownoutConfig = BrownoutConfig()
    slo: FleetSLO = FleetSLO()
    observe: Observability = Observability()

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError("fleet needs at least one shard")
        if self.queue_depth < 1:
            raise ConfigurationError("queue depth must be >= 1")
        if self.deadline_s <= 0.0:
            raise ConfigurationError("fleet deadline must be positive")
        if not 0.0 < self.est_alpha <= 1.0:
            raise ConfigurationError("est_alpha must be in (0, 1]")
        if self.heading_quantum_deg <= 0.0 or self.field_quantum_ut <= 0.0:
            raise ConfigurationError("quanta must be positive")
        if self.guard_every < 0:
            raise ConfigurationError("guard_every must be >= 0")


__all__ = [
    "BrownoutConfig",
    "BrownoutController",
    "FLEET_COMPASS",
    "FleetConfig",
    "FleetSLO",
]
