"""Metric definitions and the arithmetic that produces them.

``END_TO_END`` and ``PER_LAYER`` are the metric tables ``BENCHMARK.json``
declares (a test keeps the two in step).  Per-layer times and counts are
normalised per op of the traced phase, so runs of different length are
comparable; ratios are reported as they are.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

from spans import (
    NAME,
    Tracer,
    has_ancestor_layer,
    inclusive_time_by_name,
    root_time,
    self_time_by_layer,
)

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "rms_error_deg": "deg",
    "max_error_deg": "deg",
}

FACTORY_STAGES = ("btest", "bist", "calibration", "env", "oracle")

PER_LAYER = {
    "physics.self_s": "s/op",
    "physics.noise_samples": "count/op",
    "sensors.self_s": "s/op",
    "sensors.samples": "count/op",
    "analog.stepped_self_s": "s/op",
    "analog.stepped_channels": "count/op",
    "analog.fastpath_self_s": "s/op",
    "analog.fastpath_used": "count/op",
    "analog.fastpath_fallbacks": "count/op",
    "digital.self_s": "s/op",
    "digital.measurements": "count/op",
    "core.measure_self_s": "s/op",
    "core.health_self_s": "s/op",
    "core.compasses_built": "count/op",
    "core.build_s": "s/op",
    "batch.self_s": "s/op",
    "batch.calls": "count/op",
    "batch.rows_per_call": "count",
    "batch.excitation_cache_hit_ratio": "ratio",
    "service.self_s": "s/op",
    "service.requests": "count/op",
    "service.attempts_per_request": "count",
    "fleet.self_s": "s/op",
    "fleet.cache_hit_ratio": "ratio",
    "fleet.coalesced": "count/op",
    "fleet.backend_meas_per_req": "count",
    "fleet.sim_p50_ms": "ms",
    "fleet.sim_p99_ms": "ms",
    "scenario.self_s": "s/op",
    "scenario.steps": "count/op",
    "scenario.plants_built": "count/op",
    "array.self_s": "s/op",
    "array.fusions": "count/op",
    "factory.self_s": "s/op",
    "factory.signatures": "count/op",
    "factory.units_per_signature": "count",
    **{f"factory.stage.{stage}_s": "s/op" for stage in FACTORY_STAGES},
    "btest.self_s": "s/op",
    "btest.diagnoses": "count/op",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
}

#: Tracer layer -> the per-layer self-time metric it feeds.
SELF_TIME_METRIC = {
    "physics": "physics.self_s",
    "sensors": "sensors.self_s",
    "analog": "analog.stepped_self_s",
    "analog.fastpath": "analog.fastpath_self_s",
    "digital": "digital.self_s",
    "core": "core.measure_self_s",
    "core.health": "core.health_self_s",
    "core.build": "core.build_s",
    "batch": "batch.self_s",
    "service": "service.self_s",
    "fleet": "fleet.self_s",
    "scenario": "scenario.self_s",
    "array": "array.self_s",
    "factory": "factory.self_s",
    "btest": "btest.self_s",
}

#: Tracer counters reported per op under the same name.
PER_OP_COUNTERS = (
    "physics.noise_samples",
    "sensors.samples",
    "analog.stepped_channels",
    "digital.measurements",
    "core.compasses_built",
    "batch.calls",
    "service.requests",
    "scenario.steps",
    "array.fusions",
    "btest.diagnoses",
)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def error_stats(errors: Sequence[float]) -> Dict[str, float]:
    if not errors:
        return {"rms_error_deg": 0.0, "max_error_deg": 0.0}
    return {
        "rms_error_deg": math.sqrt(sum(e * e for e in errors) / len(errors)),
        "max_error_deg": max(errors),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def layer_metrics(
    tracer: Tracer,
    ops: int,
    phase_wall_s: float,
    workload_counters: Dict[str, float],
    latencies_s: List[float],
) -> Dict[str, float]:
    """Every PER_LAYER metric except ``trace.overhead`` from one traced phase."""
    spans = tracer.spans
    counters = tracer.counters
    values = {name: 0.0 for name in PER_LAYER}

    for layer, own in self_time_by_layer(spans).items():
        values[SELF_TIME_METRIC[layer]] = own / ops
    for name in PER_OP_COUNTERS:
        values[name] = counters.get(name, 0.0) / ops

    stats = tracer.fastpath_stats
    values["analog.fastpath_used"] = sum(s.used for s in stats) / ops
    values["analog.fastpath_fallbacks"] = (
        sum(s.fallback_total for s in stats) / ops
    )
    values["scenario.plants_built"] = (
        sum(
            1
            for s in spans
            if s[NAME] == "IntegratedCompass.__init__"
            and has_ancestor_layer(spans, s, "scenario")
        )
        / ops
    )
    values["batch.rows_per_call"] = ratio(
        counters.get("batch.rows", 0.0), counters.get("batch.calls", 0.0)
    )
    values["batch.excitation_cache_hit_ratio"] = ratio(
        counters.get("batch.cache_hits", 0.0),
        counters.get("batch.cache_hits", 0.0)
        + counters.get("batch.cache_misses", 0.0),
    )
    values["service.attempts_per_request"] = ratio(
        counters.get("service.attempts", 0.0),
        counters.get("service.requests", 0.0),
    )

    inclusive = inclusive_time_by_name(spans)
    for stage in FACTORY_STAGES[:-1]:
        values[f"factory.stage.{stage}_s"] = (
            inclusive.get(f"run_stage.{stage}", 0.0) / ops
        )
    values["factory.stage.oracle_s"] = inclusive.get("run_field_oracle", 0.0) / ops

    wc = workload_counters
    values["fleet.cache_hit_ratio"] = ratio(
        wc.get("fleet.cache_hits", 0.0), wc.get("fleet.cache_lookups", 0.0)
    )
    values["fleet.coalesced"] = wc.get("fleet.coalesced", 0.0) / ops
    values["fleet.backend_meas_per_req"] = ratio(
        wc.get("fleet.backend_measurements", 0.0), wc.get("fleet.offered", 0.0)
    )
    values["fleet.sim_p50_ms"] = percentile(latencies_s, 50) * 1e3
    values["fleet.sim_p99_ms"] = percentile(latencies_s, 99) * 1e3
    values["factory.signatures"] = wc.get("factory.signatures", 0.0) / ops
    values["factory.units_per_signature"] = ratio(
        wc.get("factory.units", 0.0), wc.get("factory.signatures", 0.0)
    )
    values["trace.unattributed_share"] = 1.0 - ratio(root_time(spans), phase_wall_s)
    return values
