"""repro.observe — tracing + metrics across the compass signal chain.

The spinning-Hall-probe compass in PAPERS.md wins diagnoses by exposing
its intermediate signals; this package gives the reproduction the same
property at runtime without touching a single output bit:

* :class:`Tracer` — nested spans over every measurement stage
  (excitation → pickup → comparator → counter → CORDIC iterations) with
  pluggable sinks: in-memory ring buffer, JSONL file, and the existing
  :mod:`repro.simulation.vcd` writer as a waveform sink,
* :class:`MetricsRegistry` — labelled counters/gauges/histograms fed by
  the compass core, the batch engine, the health supervisor and the
  fault-campaign engine,
* :class:`Observability` — the opt-in config record carried by
  :class:`~repro.core.compass.CompassConfig`; disabled (the default)
  the hot path is bit-identical and inside the ≤5 % overhead contract
  recorded in ``BENCH_observe.json``.

Quickstart::

    from repro import CompassConfig, IntegratedCompass
    from repro.observe import Observability, render_span_tree

    compass = IntegratedCompass(CompassConfig(observe=Observability.on()))
    compass.measure_heading(45.0)
    print(render_span_tree(compass.observer.ring().roots[-1]))
    print(compass.observer.metrics.snapshot())

See ``docs/observability.md`` for the span taxonomy, metric names and
sink selection guide.
"""

from .config import (
    ATTEMPT_BUCKETS,
    DISABLED,
    DISSENT_BUCKETS_DEG,
    ERROR_BUCKETS_DEG,
    FIELD_BUCKETS_UT,
    HEADING_BUCKETS,
    LATENCY_BUCKETS_S,
    RESIDUAL_BUCKETS_FRACTION,
    M_ARRAY_ELEMENTS,
    M_ARRAY_FUSIONS,
    M_ARRAY_RESIDUAL,
    M_BATCH_CHUNKS,
    M_BATCH_ROWS,
    M_BREAKER_STATE,
    M_BREAKER_TRANSITIONS,
    M_CACHE_EVENTS,
    M_CAMPAIGN_CELLS,
    M_CAMPAIGN_ERROR,
    M_COUNTER_TICKS,
    M_FACTORY_STAGE,
    M_FACTORY_UNITS,
    M_FASTPATH,
    M_FIELD,
    M_FLEET_BROWNOUT,
    M_FLEET_BROWNOUT_SHIFTS,
    M_FLEET_COALESCE,
    M_FLEET_LATENCY,
    M_FLEET_QUEUE_DEPTH,
    M_FLEET_REQUESTS,
    M_FLEET_SHED,
    M_HEADING,
    M_HEALTH_CHECKS,
    M_HEALTH_FALLBACKS,
    M_MEASUREMENTS,
    M_SCENARIO_GUARDS,
    M_SCENARIO_STEPS,
    M_SERVICE_ATTEMPTS,
    M_SERVICE_ATTEMPTS_PER_REQUEST,
    M_SERVICE_LATENCY,
    M_SERVICE_REQUESTS,
    M_VOTE_DISSENT,
    Observability,
    Observer,
    build_observer,
)
from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    HistogramState,
    MetricsRegistry,
)
from .render import render_metrics, render_span_tree, render_span_trees
from .trace import (
    JSONLSink,
    NULL_SPAN,
    RingBufferSink,
    Span,
    SpanSink,
    Tracer,
    VCDSink,
    validate_tree,
)

__all__ = [
    "ATTEMPT_BUCKETS",
    "Counter",
    "DEFAULT_BUCKETS",
    "DISABLED",
    "DISSENT_BUCKETS_DEG",
    "ERROR_BUCKETS_DEG",
    "FIELD_BUCKETS_UT",
    "Gauge",
    "HEADING_BUCKETS",
    "Histogram",
    "HistogramState",
    "JSONLSink",
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
    "M_FASTPATH",
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
    "M_SCENARIO_GUARDS",
    "M_SCENARIO_STEPS",
    "M_SERVICE_ATTEMPTS",
    "M_SERVICE_ATTEMPTS_PER_REQUEST",
    "M_SERVICE_LATENCY",
    "M_SERVICE_REQUESTS",
    "M_VOTE_DISSENT",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observability",
    "Observer",
    "RingBufferSink",
    "Span",
    "SpanSink",
    "Tracer",
    "VCDSink",
    "build_observer",
    "render_metrics",
    "render_span_tree",
    "render_span_trees",
    "validate_tree",
]
