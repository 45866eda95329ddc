"""SCENARIO1 — the golden-corpus mission suite and its fault matrix.

Two standing records in ``BENCH_scenario.json``:

* **suite** — every corpus scenario flown clean through the guarded
  compensation chain: per-scenario wall clock, worst served error,
  degraded-step counts, dead-reckoned drift.  The clean-spec scenarios
  must fly fully in spec; the designed ambush must degrade loudly.
* **campaign** — the full scenario × environment-fault × severity
  matrix (the CI ``scenario-campaign`` gate): cell counts by outcome
  with **silent-wrong ratcheted at exactly zero**.
* **batching** — the per-plant batched measurement path against the
  forced-scalar loop over the whole corpus: identical step results
  (bit-identity is asserted, not sampled) and a wall-time gate keeping
  the batched suite from regressing past the scalar one.
"""

import json
import time
from pathlib import Path

from conftest import emit
from repro.scenario import (
    CLEAN_SPEC_SCENARIOS,
    SCENARIOS,
    ScenarioCampaign,
    run_scenario,
)
from repro.scenario.runner import ScenarioRunner
from repro.units import TARGET_ACCURACY_DEG

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scenario.json"

#: The batched corpus may not take longer than this multiple of the
#: forced-scalar corpus.  The batch engine's chunked passes win ~25%
#: over the corpus (warm); the margin absorbs timer noise on small
#: scenes without letting a pathological regression through.
BATCH_WALL_RATIO_CEILING = 1.15


def run_suite():
    runs = {}
    for name in sorted(SCENARIOS):
        start = time.perf_counter()
        result = run_scenario(name)
        wall_s = time.perf_counter() - start
        summary = result.summary()
        summary["wall_s"] = round(wall_s, 3)
        runs[name] = summary
    return runs


def run_suite_scalar():
    """The corpus with batching disabled: the per-plant mission groups
    and the turn-table both measure scalar."""
    original = ScenarioRunner._measure_batched
    ScenarioRunner._measure_batched = lambda self, compass, rows: None
    try:
        runs = {}
        results = {}
        start = time.perf_counter()
        for name in sorted(SCENARIOS):
            result = run_scenario(name)
            results[name] = result
            runs[name] = result.summary()
        wall_s = time.perf_counter() - start
        return runs, results, wall_s
    finally:
        ScenarioRunner._measure_batched = original


def test_scenario1_suite_and_campaign(benchmark):
    # Warm the lazy imports (scipy.signal behind the comparator's
    # low-pass) so the wall-clock comparison charges neither suite for
    # one-time module loading.
    run_scenario("bench-clean-50ut")

    runs = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    batched_wall_s = sum(run["wall_s"] for run in runs.values())

    scalar_runs, scalar_results, scalar_wall_s = run_suite_scalar()
    batched_results = {name: run_scenario(name) for name in sorted(SCENARIOS)}
    for name, scalar_result in scalar_results.items():
        batched_result = batched_results[name]
        for scalar_step, batched_step in zip(
            scalar_result.steps, batched_result.steps
        ):
            assert batched_step.to_dict() == scalar_step.to_dict(), (
                name, scalar_step.step,
            )

    campaign_start = time.perf_counter()
    campaign = ScenarioCampaign().run()
    campaign_wall_s = time.perf_counter() - campaign_start
    summary = campaign.summary()

    record = {
        "suite": runs,
        "batching": {
            "batched_wall_s": round(batched_wall_s, 3),
            "scalar_wall_s": round(scalar_wall_s, 3),
            "wall_ratio": round(batched_wall_s / scalar_wall_s, 3),
            "wall_ratio_ceiling": BATCH_WALL_RATIO_CEILING,
            "bit_identical": True,
        },
        "campaign": {
            "cells": summary["cells"],
            "outcomes": summary["outcomes"],
            "silent_wrong": summary["silent_wrong"],
            "nonconforming": summary["nonconforming"],
            "clean_failures": summary["clean_failures"],
            "scenarios": summary["scenarios"],
            "wall_s": round(campaign_wall_s, 3),
        },
    }
    RESULT_PATH.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    lines = []
    for name, run in runs.items():
        lines.append(
            f"{name:<18} max |err| {run['max_abs_error_deg']:6.3f} deg  "
            f"{run['degraded_steps']:2d}/{run['steps']:2d} degraded  "
            f"{run['wall_s']:.2f}s"
        )
    lines.append(
        f"campaign: {summary['cells']} cells in {campaign_wall_s:.1f}s — "
        + ", ".join(f"{k}={v}" for k, v in summary["outcomes"].items())
    )
    lines.append(
        f"batching: {batched_wall_s:.2f}s batched vs {scalar_wall_s:.2f}s "
        f"scalar (ratio {batched_wall_s / scalar_wall_s:.2f}, "
        f"ceiling {BATCH_WALL_RATIO_CEILING}), bit-identical"
    )
    emit("SCENARIO1 corpus + fault matrix", lines)

    # The batched measurement path must not cost wall time (and the
    # bit-identity assertion above already proved it changes nothing).
    assert batched_wall_s / scalar_wall_s <= BATCH_WALL_RATIO_CEILING, (
        batched_wall_s, scalar_wall_s,
    )

    # The ratchet: no scenario, fault or severity produces a quiet lie.
    assert summary["silent_wrong"] == 0, campaign.silent_wrong()
    assert summary["nonconforming"] == 0, campaign.nonconforming()
    assert summary["clean_failures"] == []
    for name in CLEAN_SPEC_SCENARIOS:
        run = runs[name]
        assert run["clean"] is True, (name, run)
        assert run["max_abs_error_deg"] <= TARGET_ACCURACY_DEG
    assert runs["urban-ambush"]["degraded_steps"] > 0
    assert runs["urban-ambush"]["honest"] is True
