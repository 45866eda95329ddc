"""Admission control: the fleet's first two rungs of overload defence.

An open-loop load generator does not slow down because the fleet is
busy — arrivals keep coming at the offered rate whether or not capacity
exists.  The only defence is to *refuse work early and loudly*:

* :class:`TokenBucket` — the front door.  Tokens refill at the rated
  admission rate (with a bounded burst allowance); an arrival that
  finds the bucket dry is shed immediately with
  :class:`~repro.errors.OverloadError` (``reason="rate-limit"``) before
  it costs anything.
* :class:`BoundedShardQueue` — the per-shard waiting room.  Depth is
  hard-bounded; when an arrival finds the queue full, the queue first
  **evicts dead work** — queued requests that, given their position and
  the shard's estimated service time, can no longer meet their deadline
  (serving them would burn capacity producing answers nobody can use)
  — and only admits the newcomer if eviction actually freed a slot.
  Both the eviction and the rejection are loud ``OverloadError``s.

Every decision reads time from the injected clock and state that is a
pure function of the arrival history, so the admission trace is
deterministic — property-tested in ``tests/test_property_fleet.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..errors import ConfigurationError
from ..service.clock import Clock
from .kernel import AsyncQueue, Scheduler


@dataclass(frozen=True)
class TokenBucketConfig:
    """Refill rate [tokens/s] and burst capacity of the front door.

    The rate is a hard *ceiling* on admissions, set well above the
    fleet's rated load (default 4x the 300 rps rating): the bucket
    exists to bound the worst case cheaply, while the queue and
    brownout rungs below it handle the territory between rated and
    ceiling.
    """

    rate_rps: float = 1200.0
    burst: float = 96.0

    def __post_init__(self) -> None:
        if self.rate_rps <= 0.0:
            raise ConfigurationError("token bucket rate must be positive")
        if self.burst < 1.0:
            raise ConfigurationError("token bucket burst must be >= 1")


class TokenBucket:
    """Deterministic lazy-refill token bucket on an injected clock."""

    def __init__(self, config: TokenBucketConfig, clock: Clock):
        self.config = config
        self._clock = clock
        self._tokens = float(config.burst)
        self._refilled_at = clock.now()
        self.admitted = 0
        self.refused = 0

    def _refill(self, now: float) -> None:
        elapsed = now - self._refilled_at
        if elapsed > 0.0:
            self._tokens = min(
                float(self.config.burst),
                self._tokens + elapsed * self.config.rate_rps,
            )
            self._refilled_at = now

    def try_admit(self) -> bool:
        """Consume one token if available; pure in (clock, history)."""
        self._refill(self._clock.now())
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.admitted += 1
            return True
        self.refused = self.refused + 1
        return False

    @property
    def level(self) -> float:
        """Tokens currently in the bucket (after a lazy refill)."""
        self._refill(self._clock.now())
        return self._tokens


@dataclass
class QueueItem:
    """One admitted request waiting for its shard worker."""

    key: str
    heading_deg: float
    field_magnitude_t: float
    deadline: float
    enqueued_at: float
    future: Any  # the scheduler's future (a KernelFuture on the kernel)
    phase: Optional[int] = None


class BoundedShardQueue:
    """Hard-bounded FIFO with deadline-aware eviction of dead work."""

    def __init__(self, scheduler: Scheduler, capacity: int):
        if capacity < 1:
            raise ConfigurationError("shard queue capacity must be >= 1")
        self.capacity = capacity
        self._queue = AsyncQueue(scheduler)
        self.evicted = 0
        self.rejected = 0
        self.peak_depth = 0

    @property
    def depth(self) -> int:
        return len(self._queue)

    def _evict_dead(self, now: float, est_service_s: float) -> List[QueueItem]:
        """Remove queued items that can no longer meet their deadline.

        Item ``i`` (0-based from the head) is expected to *finish* at
        ``now + (i + 1) * est_service_s``; if that is past its deadline
        the work is already dead and holding the slot only starves
        admissible requests behind it.
        """
        backlog = self._queue.items
        survivors = []
        dead = []
        position = 0
        for item in backlog:
            expected_finish = now + (position + 1) * est_service_s
            if expected_finish > item.deadline:
                dead.append(item)
            else:
                survivors.append(item)
                position += 1
        if dead:
            backlog.clear()
            backlog.extend(survivors)
            self.evicted += len(dead)
        return dead

    def offer(
        self, item: QueueItem, now: float, est_service_s: float
    ) -> Tuple[bool, List[QueueItem]]:
        """Try to enqueue; returns ``(admitted, evicted_items)``.

        Eviction only runs when the queue is full — a queue with room
        admits unconditionally and lets the worker's own dispatch-time
        deadline check catch anything that went stale while waiting.
        The caller owns failing the evicted items' futures (the queue
        stays policy-only, completion stays in one place).
        """
        evicted: List[QueueItem] = []
        if self.depth >= self.capacity:
            evicted = self._evict_dead(now, est_service_s)
        if self.depth >= self.capacity:
            self.rejected += 1
            return False, evicted
        self._queue.put_nowait(item)
        self.peak_depth = max(self.peak_depth, self.depth)
        return True, evicted

    def push_control(self, token: Any) -> None:
        """Enqueue a control token (worker-stop sentinel), bound or not."""
        self._queue.put_nowait(token)

    async def get(self) -> Any:
        return await self._queue.get()


__all__ = [
    "BoundedShardQueue",
    "QueueItem",
    "TokenBucket",
    "TokenBucketConfig",
]
