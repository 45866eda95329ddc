"""repro.service — the resilient heading service.

The paper's compass must deliver 1° headings continuously despite an
imperfect analogue front-end; the related sensing literature (the
magnetoresistor-array tracker, the modular magneto-inductive arrays in
PAPERS.md) gets that robustness from *arrays of cheap replicated
channels*.  This package is that idea at the system level:

* :class:`~repro.service.service.HeadingService` — fronts a bulkhead
  pool of N independently-seeded compasses with per-request deadlines,
  per-attempt timeouts, bounded retries (exponential backoff +
  decorrelated jitter), per-replica circuit breakers and K-of-N
  circular-median/MAD heading voting;
* :class:`~repro.service.breaker.CircuitBreaker` — the
  closed/open/half-open admission gate per replica;
* :mod:`~repro.service.voting` — heading statistics done on the circle
  (vote on unit vectors, never raw degrees);
* :mod:`~repro.service.clock` / :mod:`~repro.service.backoff` —
  injected time and jitter, so every retry schedule and breaker
  cool-down is reproducible from the seed.

Quickstart::

    from repro.service import HeadingService, ServiceConfig

    service = HeadingService(ServiceConfig(replicas=3, quorum=2))
    response = service.measure_heading(123.0)
    print(response.heading_deg, response.verdict.value)

The chaos companion lives in :mod:`repro.faults.chaos`: a seeded soak
that arms registered faults on a minority of replicas while asserting
the service keeps silent-wrong at zero and availability above a floor.
"""

from .backoff import BackoffSchedule
from .breaker import BreakerConfig, BreakerState, CircuitBreaker
from .clock import Clock, SimulatedClock, SystemClock
from .replica import CompassReplica, replica_config
from .service import (
    AttemptRecord,
    HeadingService,
    ServiceConfig,
    ServiceResponse,
    ServiceVerdict,
)
from .voting import (
    VoteResult,
    circular_mad_deg,
    circular_mean_deg,
    circular_median_deg,
    vote_headings,
)

__all__ = [
    "AttemptRecord",
    "BackoffSchedule",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "Clock",
    "CompassReplica",
    "HeadingService",
    "ServiceConfig",
    "ServiceResponse",
    "ServiceVerdict",
    "SimulatedClock",
    "SystemClock",
    "VoteResult",
    "circular_mad_deg",
    "circular_mean_deg",
    "circular_median_deg",
    "replica_config",
    "vote_headings",
]
