"""ARRAY1 — gradiometer array fusion, redundancy and near-field gates.

Four standing records in ``BENCH_array.json``:

* **redundancy** — the 4-element reference array with one element
  hard-dead (open excitation coil) at every campaign heading: the fused
  heading must stay *unflagged* and inside the paper's 1° spec — the
  PR's acceptance claim that a single element failure is benign.
* **campaign** — every ``array.*`` fault × severity × heading cell
  through the array fault campaign, silent-wrong ratcheted at zero.
* **gradiometer** — a near-field ambush from inside the single-sensor
  magnitude-blind window (``tests/test_property_scenario.py``): the
  array must flag ``F_ARRAY_GRADIENT`` while the single-sensor chain,
  fed the equivalent uniform field, serves the lie unflagged.
* **performance** — fusion overhead over N independent scalar
  measurements (wall-gated), and the excitation traces the batched
  sweep builds with one shared cache against one cache per element
  (count-gated; the wall-time speedup is recorded only).
"""

import json
import math
import time
from pathlib import Path

from conftest import emit
from repro.array import (
    ArrayCompass,
    ArrayConfig,
    ArrayGeometry,
    F_ARRAY_GRADIENT,
    NearFieldSource,
)
from repro.batch import ExcitationTraceCache
from repro.core.compass import IntegratedCompass
from repro.faults import FaultCampaign, Outcome, REGISTRY
from repro.faults.campaign import DEFAULT_HEADINGS
from repro.units import TARGET_ACCURACY_DEG, microtesla_to_a_per_m

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_array.json"

#: The blind-window ambush: 1 µT at 1 m sits squarely inside the
#: single-sensor silent band (0.4–2.5 µT against the 50 µT screen) —
#: the magnitude moves ~2 %, under every magnitude guard, while the
#: heading rotates past the 1° spec.
AMBUSH_UT = 1.0
AMBUSH_BEARING_DEG = 30.0

#: Fusing N elements may not cost more than this multiple of N
#: independent scalar measurements (measured ~1.06: screening, voting
#: and the closed-form WLS are noise next to the signal chain).
FUSION_OVERHEAD_CEILING = 1.30


SWEEP_HEADINGS = [15.0 * i + 0.5 for i in range(24)]


def _square_array(**overrides):
    return ArrayCompass(
        ArrayConfig(geometry=ArrayGeometry.square(), **overrides)
    )


def run_redundancy():
    """One hard-dead element: fused headings stay unflagged and in spec."""
    array = _square_array()
    array.measure_heading(DEFAULT_HEADINGS[0])  # clean warm-up
    rows = []
    with REGISTRY.inject("array.element_dead", array, 1.0):
        for heading in DEFAULT_HEADINGS:
            fused = array.measure_heading(heading)
            rows.append(
                {
                    "heading_deg": heading,
                    "fused_deg": fused.heading_deg,
                    "error_deg": round(fused.error_against(heading), 4),
                    "n_used": fused.n_used,
                    "flags": list(fused.flags),
                }
            )
    return rows


def run_campaign():
    """Every array.* fault through the campaign's array probe."""
    names = [n for n in REGISTRY.names() if n.startswith("array.")]
    result = FaultCampaign(faults=names).run()
    return result


def run_gradiometer():
    """The array flags the ambush the single-sensor chain cannot see."""
    truth = 123.0
    field_ut = 50.0
    source = NearFieldSource(
        delta_north_ut=AMBUSH_UT * math.cos(math.radians(AMBUSH_BEARING_DEG)),
        delta_east_ut=AMBUSH_UT * math.sin(math.radians(AMBUSH_BEARING_DEG)),
        distance_m=1.0,
        bearing_deg=AMBUSH_BEARING_DEG,
    )
    array = _square_array()
    fused = array.measure_world(truth, field_ut, source=source)

    # Control arm: one bare compass at the array origin sees the same
    # disturbance as a perfectly uniform field — no spatial information.
    compass = IntegratedCompass(array.config.element)
    north = field_ut + source.delta_north_ut
    east = source.delta_east_ut
    magnitude_ut = math.hypot(north, east)
    bearing = math.degrees(math.atan2(east, north))
    h_x, h_y = compass.sensors.axis_fields(
        microtesla_to_a_per_m(magnitude_ut), truth - bearing
    )
    single = compass.measure_components(h_x, h_y)
    single_error = abs(
        (single.heading_deg - truth + 180.0) % 360.0 - 180.0
    )
    return {
        "ambush_ut": AMBUSH_UT,
        "array_flags": list(fused.flags),
        "array_residual_max": round(fused.residual_max_fraction, 5),
        "gradient_threshold": array.config.gradient_threshold,
        "single_degraded": single.degraded,
        "single_error_deg": round(single_error, 3),
    }, fused, single


def _best_of(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_performance():
    """Fusion overhead and speedup (min-of-3 walls), and trace builds."""
    compass = IntegratedCompass()
    compass.measure_heading(45.0)  # warm the lazy scipy import
    array = _square_array()
    array.measure_heading(45.0)

    scalar_wall = _best_of(
        lambda: [compass.measure_heading(h) for h in DEFAULT_HEADINGS]
    )
    array_wall = _best_of(
        lambda: [array.measure_heading(h) for h in DEFAULT_HEADINGS]
    )
    overhead = array_wall / (array.n_elements * scalar_wall)

    # Each round starts from cold caches: the speedup under test is the
    # per-sweep trace-synthesis saving, which a warm cache would hide.
    shared = _square_array()
    shared.sweep_headings(SWEEP_HEADINGS)  # warm the batch path itself

    def sweep_shared():
        cache = ExcitationTraceCache()
        shared.cache = cache
        for batch in shared._batches:
            batch.cache = cache
        shared.sweep_headings(SWEEP_HEADINGS)
        return [cache]

    def sweep_unshared():
        caches = [ExcitationTraceCache() for _ in shared._batches]
        for batch, cache in zip(shared._batches, caches):
            batch.cache = cache
        shared.sweep_headings(SWEEP_HEADINGS)
        return caches

    shared_wall = _best_of(sweep_shared)
    unshared_wall = _best_of(sweep_unshared)
    # A cache miss is one trace build; the counts are exact, unlike the
    # wall-time ratio, which a shared build saving only 3 of 4 traces
    # leaves within timer noise.  The shared sweep runs last so its hit
    # counters stay standing.
    unshared_builds = sum(c.misses for c in sweep_unshared())
    shared_builds = sum(c.misses for c in sweep_shared())
    speedup = unshared_wall / shared_wall
    return {
        "scalar_wall_s": round(scalar_wall, 4),
        "array_wall_s": round(array_wall, 4),
        "fusion_overhead_ratio": round(overhead, 3),
        "fusion_overhead_ceiling": FUSION_OVERHEAD_CEILING,
        "shared_sweep_wall_s": round(shared_wall, 4),
        "unshared_sweep_wall_s": round(unshared_wall, 4),
        "shared_cache_speedup": round(speedup, 3),
        "shared_cache_hits": shared.cache.hits,
        "shared_trace_builds": shared_builds,
        "unshared_trace_builds": unshared_builds,
        "elements": shared.n_elements,
    }


def test_array1_fusion_redundancy_and_gradiometer(benchmark):
    redundancy = benchmark.pedantic(run_redundancy, rounds=1, iterations=1)
    campaign = run_campaign()
    summary = campaign.summary()
    gradiometer, fused, single = run_gradiometer()
    performance = run_performance()

    record = {
        "redundancy": {
            "geometry": "square-0.3m",
            "dead_elements": 1,
            "rows": redundancy,
            "worst_error_deg": max(r["error_deg"] for r in redundancy),
            "spec_deg": TARGET_ACCURACY_DEG,
        },
        "campaign": {
            "cells": summary["cells"],
            "outcomes": summary["outcomes"],
            "silent_wrong": len(campaign.silent_wrong()),
            "nonconforming": len(campaign.nonconforming()),
        },
        "gradiometer": gradiometer,
        "performance": performance,
    }
    RESULT_PATH.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    lines = [
        f"redundancy: 3/4 elements, worst |err| "
        f"{record['redundancy']['worst_error_deg']:.3f} deg "
        f"(spec {TARGET_ACCURACY_DEG}), all unflagged",
        f"campaign: {summary['cells']} cells — "
        + ", ".join(f"{k}={v}" for k, v in summary["outcomes"].items()),
        f"gradiometer: {AMBUSH_UT} uT ambush -> array residual "
        f"{gradiometer['array_residual_max']:.4f} "
        f"(threshold {gradiometer['gradient_threshold']}) flagged; "
        f"single sensor unflagged, "
        f"{gradiometer['single_error_deg']:.2f} deg wrong",
        f"performance: fusion overhead x"
        f"{performance['fusion_overhead_ratio']:.2f} "
        f"(ceiling {FUSION_OVERHEAD_CEILING}), trace builds "
        f"{performance['shared_trace_builds']} shared vs "
        f"{performance['unshared_trace_builds']} unshared, speedup x"
        f"{performance['shared_cache_speedup']:.2f}",
    ]
    emit("ARRAY1 gradiometer array gates", lines)

    # Acceptance gate 1: one dead element is benign — the fused heading
    # is served unflagged, from 3 of 4 elements, inside the 1° spec.
    for row in redundancy:
        assert row["flags"] == [], row
        assert row["n_used"] == 3, row
        assert row["error_deg"] <= TARGET_ACCURACY_DEG, row
    assert summary["silent_wrong"] == 0, campaign.silent_wrong()
    assert not campaign.nonconforming()
    assert summary["outcomes"].get(Outcome.SILENT_WRONG.value, 0) == 0

    # Acceptance gate 2: the gradiometer rejects a blind-window ambush
    # the single-sensor chain serves unflagged (and out of spec).
    assert F_ARRAY_GRADIENT in fused.flags
    assert fused.residual_max_fraction > gradiometer["gradient_threshold"]
    assert single.degraded is False
    assert gradiometer["single_error_deg"] > 0.25

    # Performance gates: fusion stays cheap, and one shared cache builds
    # each trace once where per-element caches build it per element.
    assert (
        performance["fusion_overhead_ratio"] <= FUSION_OVERHEAD_CEILING
    ), performance
    assert performance["shared_trace_builds"] == 1, performance
    assert (
        performance["unshared_trace_builds"] == performance["elements"]
    ), performance
