"""One bulkhead replica: an independently-seeded compass behind a breaker.

Bulkhead isolation means a fault in one replica cannot leak into
another: each :class:`CompassReplica` owns its *own*
:class:`~repro.core.compass.IntegratedCompass` instance (its own sensor
pair, front-end, back-end and health supervisor) built from the shared
base configuration with a replica-specific noise seed.  The fault
registry's reversible monkey-hooks patch *instances*, so a chaos
campaign arming a fault on replica 1 leaves replicas 0 and 2 untouched
by construction.

What the replicas do share is the certified fast-path solve: the
service hands every replica compass one solve memo
(:meth:`~repro.core.compass.IntegratedCompass.share_solves`), so under
a noiseless budget — where the seed is never read — a request solves
each channel once.  Only a replica with no fault armed reads or writes
it; an armed replica solves alone, and each keeps its own assembly,
health state, breaker, spans and metrics.

The replica also models its service latency: the physical measurement
time (settle + count + CORDIC) plus a seeded dispatch-overhead draw,
scaled by :attr:`latency_scale` — the chaos harness's hook for slow-
replica (grey-failure) scenarios that must trip the attempt timeout
rather than any health check.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.compass import CompassConfig, IntegratedCompass
from ..core.heading import HeadingMeasurement
from ..errors import ConfigurationError
from ..observe import Observability
from .breaker import CircuitBreaker

#: Dispatch overhead per attempt, as a fraction of the measurement time:
#: drawn uniformly from this window so replicas do not reply in lockstep.
OVERHEAD_FRACTION_RANGE = (0.05, 0.25)


def replica_config(base: CompassConfig, noise_seed: int) -> CompassConfig:
    """The base compass configuration re-seeded for one replica.

    Every replica and array element reports into its owner's observer,
    so an ``observe`` nested in the base configuration would be
    replaced unseen; it is refused before any compass is built.
    """
    if base.observe != Observability():
        raise ConfigurationError(
            "a replica or array element reports through its owner's "
            "observer: set observe on the ServiceConfig, ArrayConfig or "
            "FleetConfig, not on the compass configuration inside it"
        )
    return dataclasses.replace(
        base,
        front_end=dataclasses.replace(base.front_end, noise_seed=noise_seed),
    )


class CompassReplica:
    """One pool member: compass + breaker + latency model."""

    def __init__(
        self,
        index: int,
        base_config: CompassConfig,
        breaker: CircuitBreaker,
        rng: np.random.Generator,
        noise_seed: int,
    ):
        self.index = index
        self.name = f"replica-{index}"
        self.compass = IntegratedCompass(replica_config(base_config, noise_seed))
        self.breaker = breaker
        self._rng = rng
        #: Grey-failure hook: >1 slows every reply by that factor.
        self.latency_scale = 1.0
        self._batch = None

    def draw_latency(self) -> float:
        """Modelled duration of the *next* attempt [s].

        Drawn before the measurement runs so a faulting attempt costs
        the caller the same time a clean one would — on real hardware
        the excitation/count cycle completes before any plausibility
        check can reject it.
        """
        overhead = float(self._rng.uniform(*OVERHEAD_FRACTION_RANGE))
        nominal = self.compass.back_end.controller.measurement_duration()
        return nominal * (1.0 + overhead) * self.latency_scale

    def measure(
        self, true_heading_deg: float, field_magnitude_t: float
    ) -> HeadingMeasurement:
        """One measurement attempt; raises whatever the compass raises —
        classification is the service's job."""
        return self.compass.measure_heading(
            true_heading_deg, field_magnitude_t
        )

    def batch(self):
        """This replica's lazily built batch engine (shared front-end).

        The :class:`~repro.batch.BatchCompass` wraps the *same* compass
        instance, so interleaving scalar attempts and scene batches
        keeps one noise stream — the bulk path's measurements stay
        bit-identical to the scalar loop's.
        """
        if self._batch is None:
            from ..batch import BatchCompass

            self._batch = BatchCompass(self.compass)
        return self._batch


__all__ = ["CompassReplica", "OVERHEAD_FRACTION_RANGE", "replica_config"]
