"""Retry backoff: exponential growth with decorrelated jitter.

Retrying a sick replica immediately is how a transient fault becomes a
retry storm; retrying on a fixed exponential schedule synchronises every
client into thundering herds.  The service therefore uses *decorrelated
jitter*: each delay is drawn uniformly from ``[base, previous × mult]``
and capped, which empirically spreads contending retries at least as
well as full jitter while still growing exponentially on persistent
failure.

Determinism: the draw comes from an injected :class:`numpy.random.
Generator`, seeded by the service's root seed — a retry schedule is a
pure function of (seed, failure history), so chaos-soak runs reproduce
exactly.
"""

from __future__ import annotations

import numpy as np

#: First delay and the lower bound of every draw [s].
BACKOFF_BASE_S = 0.002
#: Upper bound on any single delay [s].
BACKOFF_CAP_S = 0.05
#: Growth factor of the decorrelated-jitter window.
BACKOFF_MULTIPLIER = 3.0


class BackoffSchedule:
    """The stateful per-request delay sequence for one retry loop."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._previous = BACKOFF_BASE_S

    def next_delay(self) -> float:
        """Draw the next retry delay [s] (decorrelated jitter)."""
        high = max(BACKOFF_BASE_S, self._previous * BACKOFF_MULTIPLIER)
        delay = float(self._rng.uniform(BACKOFF_BASE_S, high))
        delay = min(BACKOFF_CAP_S, delay)
        self._previous = delay
        return delay


__all__ = [
    "BACKOFF_BASE_S",
    "BACKOFF_CAP_S",
    "BACKOFF_MULTIPLIER",
    "BackoffSchedule",
]
