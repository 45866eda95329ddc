"""``repro.fleet`` — the async sharded heading fleet.

The paper's integrated compass is one sensor; this package is what it
takes to serve a *population* of them: an asyncio-style facade that
shards heading requests across independently-seeded
:class:`~repro.service.HeadingService` worker pools (consistent hashing
on the caller's device key), refuses overload explicitly
(:class:`~repro.errors.OverloadError` from a token bucket, bounded
shard queues and deadline eviction), collapses bursts of identical
scenes through request coalescing and a bounded LRU cache whose answers
are bit-identical to fresh measurements, and degrades gracefully under
sustained pressure (observability sampling first, then quorum
step-down — always visible in the verdict, never silent).

Determinism is load-bearing: the whole fleet runs on the virtual-time
:class:`~repro.fleet.kernel.Kernel`, so the storm harness
(:class:`~repro.fleet.soak.FleetSoak`) replays bit-identically from a
seed and its SLO gates are regression tests, not statistics.

See ``docs/fleet.md`` for the architecture tour.
"""

from .admission import (
    BoundedShardQueue,
    QueueItem,
    TokenBucket,
    TokenBucketConfig,
)
from .cache import (
    CacheEntry,
    DEFAULT_FIELD_QUANTUM_UT,
    DEFAULT_HEADING_QUANTUM_DEG,
    HeadingCache,
    quantize_field,
    quantize_heading,
    scene_key,
)
from .config import (
    BrownoutController,
    FLEET_COMPASS,
    FleetConfig,
    FleetSLO,
)
from .fleet import (
    FleetResponse,
    HeadingFleet,
    SOURCE_CACHE,
    SOURCE_COALESCED,
    SOURCE_MEASURED,
)
from .hashing import HashRing, stable_hash
from .kernel import (
    AsyncQueue,
    Kernel,
    KernelFuture,
    Scheduler,
    Task,
    run,
)
from .loadgen import LoadPhase, OpenLoopGenerator, PhaseRecord
from .shard import FleetShard
from .soak import (
    FleetSoak,
    FleetSoakConfig,
    FleetSoakEvent,
    FleetSoakReport,
    OVERLOAD_MULTIPLIER,
)

__all__ = [
    "AsyncQueue",
    "BoundedShardQueue",
    "BrownoutController",
    "CacheEntry",
    "DEFAULT_FIELD_QUANTUM_UT",
    "DEFAULT_HEADING_QUANTUM_DEG",
    "FLEET_COMPASS",
    "FleetConfig",
    "FleetResponse",
    "FleetSLO",
    "FleetShard",
    "FleetSoak",
    "FleetSoakConfig",
    "FleetSoakEvent",
    "FleetSoakReport",
    "HashRing",
    "HeadingCache",
    "HeadingFleet",
    "Kernel",
    "KernelFuture",
    "LoadPhase",
    "OpenLoopGenerator",
    "OVERLOAD_MULTIPLIER",
    "PhaseRecord",
    "QueueItem",
    "run",
    "Scheduler",
    "SOURCE_CACHE",
    "SOURCE_COALESCED",
    "SOURCE_MEASURED",
    "stable_hash",
    "Task",
    "TokenBucket",
    "TokenBucketConfig",
    "quantize_field",
    "quantize_heading",
    "scene_key",
]
