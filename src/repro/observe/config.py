"""Observability configuration and the per-compass :class:`Observer`.

One frozen :class:`Observability` record rides on
:class:`~repro.core.compass.CompassConfig` (disabled by default) and is
resolved once, at compass construction, into an :class:`Observer` — the
nullable bundle of one :class:`~repro.observe.trace.Tracer` and one
:class:`~repro.observe.metrics.MetricsRegistry` that every instrumented
subsystem consults.

The contract call sites rely on:

* ``observer.tracer is None``/``observer.metrics is None`` when the
  corresponding half is off — instrumentation guards on exactly that,
  so the disabled hot path costs one attribute check;
* :data:`DISABLED` is the shared do-nothing observer, safe to attach
  anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .metrics import MetricsRegistry
from .trace import (
    NULL_SPAN,
    RING_CAPACITY,
    VCD_TIMESCALE_NS,
    JSONLSink,
    RingBufferSink,
    Tracer,
    VCDSink,
)

# -- metric taxonomy -----------------------------------------------------------
# Every metric the instrumented stack emits, in one place; the labels per
# metric are documented in docs/observability.md and pinned by
# tests/test_observe.py.

M_MEASUREMENTS = "compass_measurements_total"      # {path, status}
M_COUNTER_TICKS = "compass_counter_ticks_total"    # {path, channel}
M_HEADING = "compass_heading_deg"                  # {path} histogram
M_FIELD = "compass_field_estimate_ut"              # {path} histogram
M_HEALTH_CHECKS = "health_checks_total"            # {check, outcome}
M_HEALTH_FALLBACKS = "health_fallbacks_total"      # {kind}
M_BATCH_ROWS = "batch_rows_total"                  # {}
M_BATCH_CHUNKS = "batch_chunks_total"              # {channel}
M_CACHE_EVENTS = "excitation_cache_total"          # {event: hit|miss}
M_FASTPATH = "fastpath_total"                      # {outcome: used|fallback, reason}
M_CAMPAIGN_CELLS = "campaign_cells_total"          # {path, outcome}
M_CAMPAIGN_ERROR = "campaign_error_deg"            # {path} histogram
M_SERVICE_REQUESTS = "service_requests_total"      # {verdict}
M_SERVICE_ATTEMPTS = "service_attempts_total"      # {replica, outcome}
M_SERVICE_ATTEMPTS_PER_REQUEST = "service_attempts_per_request"  # {} histogram
M_SERVICE_LATENCY = "service_request_latency_s"    # {} histogram
M_VOTE_DISSENT = "service_vote_dissent_deg"        # {} histogram
M_BREAKER_TRANSITIONS = "breaker_transitions_total"  # {replica, to}
M_BREAKER_STATE = "breaker_state"                  # {replica} gauge
M_FLEET_REQUESTS = "fleet_requests_total"          # {outcome}
M_FLEET_SHED = "fleet_shed_total"                  # {reason}
M_FLEET_COALESCE = "fleet_coalesce_total"          # {event: leader|follower|cache-hit|cache-miss}
M_FLEET_QUEUE_DEPTH = "fleet_queue_depth"          # {shard} gauge
M_FLEET_LATENCY = "fleet_request_latency_s"        # {source} histogram
M_FLEET_BROWNOUT = "fleet_brownout_level"          # {} gauge
M_FLEET_BROWNOUT_SHIFTS = "fleet_brownout_transitions_total"  # {to}
M_FACTORY_UNITS = "factory_units_total"            # {disposition}
M_FACTORY_STAGE = "factory_stage_outcomes_total"   # {stage, outcome}
M_SCENARIO_STEPS = "scenario_steps_total"          # {scenario, status}
M_SCENARIO_GUARDS = "scenario_guard_flags_total"   # {scenario, flag}
M_ARRAY_FUSIONS = "array_fusions_total"            # {status}
M_ARRAY_ELEMENTS = "array_elements_total"          # {element, outcome}
M_ARRAY_RESIDUAL = "array_gradiometer_residual"    # {} histogram

#: Heading histogram buckets: the eight compass octants.
HEADING_BUCKETS = (45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0, 360.0)
#: Field-estimate buckets [µT]: below-band, the §1 worldwide 25…65 µT
#: span, and the out-of-band overflow the health supervisor flags.
FIELD_BUCKETS_UT = (10.0, 25.0, 35.0, 45.0, 55.0, 65.0, 97.5, 130.0)
#: Heading-error buckets [deg] for campaign cells: inside the paper's 1°
#: spec, near-misses, and gross failures.
ERROR_BUCKETS_DEG = (0.25, 0.5, 1.0, 2.0, 5.0, 15.0, 45.0, 180.0)
#: Attempt-count buckets for the per-request retry histogram: 1 attempt
#: per replica is the clean path, Fibonacci growth covers retry storms.
ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0)
#: Request-latency buckets [s]: one measurement is ~2.3 ms, so the grid
#: spans the clean three-replica request through backoff-heavy retries.
LATENCY_BUCKETS_S = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
#: Vote-dissent buckets [deg]: quantisation-level disagreement between
#: replica headings up to the outlier-rejection threshold and beyond.
DISSENT_BUCKETS_DEG = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 15.0)
#: Gradiometer-residual buckets (fraction of the fused field): counter
#: quantisation noise, the near-field detection threshold region, and
#: gross local disturbances.
RESIDUAL_BUCKETS_FRACTION = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.2,
)


@dataclass(frozen=True)
class Observability:
    """Opt-in switchboard for tracing + metrics on one compass.

    ``ring_capacity`` and ``vcd_timescale_ns`` are fixed (``init=False``).

    Attributes
    ----------
    enabled:
        Master switch; ``False`` (the default) resolves to
        :data:`DISABLED` and leaves the measurement hot path untouched.
    tracing, metrics:
        Sub-switches for the two halves.
    ring_capacity:
        Root spans (= measurements) kept by the in-memory ring sink.
    jsonl_path:
        When set, every finished span is appended to this JSONL file.
    vcd_path:
        When set, span activity is rendered as VCD waveforms on
        :meth:`Observer.close` via :mod:`repro.simulation.vcd`.
    vcd_timescale_ns:
        Timescale of the VCD export (wall-clock nanoseconds per unit).
    replay_path:
        When set, every measurement is captured at stage boundaries
        into a self-checking replay log at this path (see
        :mod:`repro.replay`); the footer is written on
        :meth:`Observer.close`.
    """

    enabled: bool = False
    tracing: bool = True
    metrics: bool = True
    ring_capacity: int = field(default=RING_CAPACITY, init=False)
    jsonl_path: Optional[str] = None
    vcd_path: Optional[str] = None
    vcd_timescale_ns: float = field(default=VCD_TIMESCALE_NS, init=False)
    replay_path: Optional[str] = None

    @classmethod
    def on(cls, **overrides) -> "Observability":
        """Shorthand for an enabled configuration."""
        return cls(enabled=True, **overrides)


class Observer:
    """The resolved (tracer, metrics, recorder) bundle one compass reports into."""

    __slots__ = ("tracer", "metrics", "recorder")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        recorder=None,
    ):
        self.tracer = tracer
        self.metrics = metrics
        #: Optional :class:`repro.replay.LogRecorder`; ``None`` keeps the
        #: measurement hot path capture-free (one attribute check).
        self.recorder = recorder

    @property
    def enabled(self) -> bool:
        return (
            self.tracer is not None
            or self.metrics is not None
            or self.recorder is not None
        )

    def span(self, name: str, **attributes):
        """A traced span, or the shared no-op span when tracing is off."""
        if self.tracer is None:
            return NULL_SPAN
        return self.tracer.span(name, **attributes)

    def ring(self) -> Optional[RingBufferSink]:
        """The tracer's ring-buffer sink, if one is attached."""
        if self.tracer is None:
            return None
        for sink in self.tracer.sinks:
            if isinstance(sink, RingBufferSink):
                return sink
        return None

    def close(self) -> None:
        """Flush file-backed sinks (JSONL, VCD) and the replay recorder."""
        if self.tracer is not None:
            self.tracer.close()
        if self.recorder is not None:
            self.recorder.close()


#: The do-nothing observer every un-instrumented component carries.
DISABLED = Observer()


def build_observer(config: Observability) -> Observer:
    """Resolve an :class:`Observability` record into a live observer."""
    if not config.enabled:
        return DISABLED
    tracer = None
    if config.tracing:
        sinks: list = [RingBufferSink()]
        if config.jsonl_path is not None:
            sinks.append(JSONLSink(config.jsonl_path))
        if config.vcd_path is not None:
            sinks.append(VCDSink(config.vcd_path))
        tracer = Tracer(sinks=sinks)
    metrics = MetricsRegistry() if config.metrics else None
    recorder = None
    if config.replay_path is not None:
        # Imported here: repro.replay sits above repro.observe in the
        # layering (its format captures health reports, which import
        # this package).
        from ..replay.recorder import LogRecorder

        recorder = LogRecorder(config.replay_path)
    return Observer(tracer=tracer, metrics=metrics, recorder=recorder)


__all__ = [
    "ATTEMPT_BUCKETS",
    "DISABLED",
    "DISSENT_BUCKETS_DEG",
    "ERROR_BUCKETS_DEG",
    "FIELD_BUCKETS_UT",
    "HEADING_BUCKETS",
    "LATENCY_BUCKETS_S",
    "RESIDUAL_BUCKETS_FRACTION",
    "M_ARRAY_ELEMENTS",
    "M_ARRAY_FUSIONS",
    "M_ARRAY_RESIDUAL",
    "M_BATCH_CHUNKS",
    "M_BATCH_ROWS",
    "M_BREAKER_STATE",
    "M_BREAKER_TRANSITIONS",
    "M_CACHE_EVENTS",
    "M_CAMPAIGN_CELLS",
    "M_CAMPAIGN_ERROR",
    "M_COUNTER_TICKS",
    "M_FACTORY_STAGE",
    "M_FACTORY_UNITS",
    "M_FIELD",
    "M_FLEET_BROWNOUT",
    "M_FLEET_BROWNOUT_SHIFTS",
    "M_FLEET_COALESCE",
    "M_FLEET_LATENCY",
    "M_FLEET_QUEUE_DEPTH",
    "M_FLEET_REQUESTS",
    "M_FLEET_SHED",
    "M_HEADING",
    "M_HEALTH_CHECKS",
    "M_HEALTH_FALLBACKS",
    "M_MEASUREMENTS",
    "M_SERVICE_ATTEMPTS",
    "M_SERVICE_ATTEMPTS_PER_REQUEST",
    "M_SCENARIO_GUARDS",
    "M_SCENARIO_STEPS",
    "M_SERVICE_LATENCY",
    "M_SERVICE_REQUESTS",
    "M_VOTE_DISSENT",
    "Observability",
    "Observer",
    "build_observer",
]
