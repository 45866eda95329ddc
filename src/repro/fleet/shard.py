"""One fleet shard: a heading service, its queue and its time domain.

Each shard owns

* an independently-seeded :class:`~repro.service.HeadingService`
  replica pool on its **own** :class:`SimulatedClock`.  The service
  layer is synchronous — a request advances its clock internally while
  it runs — so sharing one clock would serialize the whole fleet in
  simulated time.  Instead every shard keeps a private service clock
  that the worker re-synchronizes to global (kernel) time at dispatch
  (:meth:`FleetShard.sync`, advance-only so breaker cool-downs stay
  monotone), then charges the measurement's elapsed service time back
  to the global timeline with a kernel sleep.  Net effect: shards
  progress in parallel, requests on one shard serialize — exactly the
  concurrency model of one worker per shard;
* a :class:`~repro.fleet.admission.BoundedShardQueue` waiting room;
* an EWMA estimate of its own service time, which prices the
  deadline-eviction policy (a queue position is worth
  ``est_service_s`` seconds of waiting).
"""

from __future__ import annotations

import dataclasses

from ..service import HeadingService
from ..service.clock import SimulatedClock
from .admission import BoundedShardQueue
from .config import FleetConfig
from .kernel import Scheduler

#: Prior for the per-shard service-time EWMA [s]: one fast-path
#: three-replica quorum request measures ≈8 ms of simulated time.
DEFAULT_SERVICE_ESTIMATE_S = 0.008
#: EWMA smoothing of the per-shard service-time estimate that drives
#: deadline eviction.
SERVICE_ESTIMATE_ALPHA = 0.2


class FleetShard:
    """A heading service worker with its queue and private time domain."""

    def __init__(
        self,
        index: int,
        config: FleetConfig,
        seed: int,
        scheduler: Scheduler,
    ):
        self.index = index
        self.name = f"shard-{index}"
        self.clock = SimulatedClock(start_s=scheduler.now())
        self.service = HeadingService(
            dataclasses.replace(config.service, seed=seed),
            clock=self.clock,
        )
        self.queue = BoundedShardQueue(scheduler, config.queue_depth)
        self.est_service_s = DEFAULT_SERVICE_ESTIMATE_S
        self.served = 0
        self.failed = 0

    def sync(self, global_now: float) -> None:
        """Advance the service clock to global time (never backwards)."""
        gap = global_now - self.clock.now()
        if gap > 0.0:
            self.clock.advance(gap)

    def note_service_time(self, elapsed_s: float) -> None:
        """Fold one observed service time into the eviction-price EWMA."""
        self.est_service_s += SERVICE_ESTIMATE_ALPHA * (
            elapsed_s - self.est_service_s
        )

    @property
    def occupancy(self) -> float:
        """Queue fill fraction (0..1) — the brownout controller's signal."""
        return self.queue.depth / self.queue.capacity


__all__ = ["DEFAULT_SERVICE_ESTIMATE_S", "FleetShard"]
