"""SWEEP1 — batch-engine speedup and bit-identity record.

The batch engine (``repro.batch``) exists to make sweep-shaped workloads
— turntable sweeps, magnitude sweeps, Monte-Carlo yield runs — cheap
without changing a single output bit.  This bench is the record of both
halves of that contract: it times a full 72-heading turntable sweep
through the scalar ``measure_heading`` loop and through
``BatchCompass.sweep_headings``, verifies the counter values are exactly
identical, and writes the result to ``BENCH_sweep.json`` at the repo
root.

The default configuration is noiseless, so every run is deterministic;
the batch side is timed cold (empty excitation cache) and warm
(best-of-3 with the cache populated) — a sweep-heavy session pays the
cold cost once.  Both sides pin the stepped engine
(``FrontEndConfig(fastpath=False)``): the vectorization under test is
the stepped chain's, so the recorded speedups are stepped-engine
figures.  On the default engine (the certified closed-form fast path)
the batch-vs-scalar ratio is smaller, ~2.3x on a 2-core Xeon.
"""

import json
import time
from pathlib import Path

import pytest

from conftest import emit
from repro.analog.frontend import FrontEndConfig
from repro.batch import BatchCompass
from repro.core.compass import CHUNK_ROWS, CompassConfig, IntegratedCompass
from repro.core.heading import headings_evenly_spaced

N_HEADINGS = 72
FIELD_T = 50.0e-6
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
STEPPED = CompassConfig(front_end=FrontEndConfig(fastpath=False))


def run_comparison():
    headings = headings_evenly_spaced(N_HEADINGS, 0.5)

    scalar_compass = IntegratedCompass(STEPPED)
    t0 = time.perf_counter()
    scalar = [
        scalar_compass.measure_heading(h, field_magnitude_t=FIELD_T)
        for h in headings
    ]
    scalar_s = time.perf_counter() - t0

    batch_compass = BatchCompass(STEPPED)
    t0 = time.perf_counter()
    batch = batch_compass.sweep_headings(headings, field_magnitude_t=FIELD_T)
    cold_s = time.perf_counter() - t0

    warm_s = cold_s
    for _ in range(3):
        t0 = time.perf_counter()
        batch = batch_compass.sweep_headings(headings, field_magnitude_t=FIELD_T)
        warm_s = min(warm_s, time.perf_counter() - t0)

    divergence = max(
        max(abs(b.x_count - s.x_count), abs(b.y_count - s.y_count))
        for b, s in zip(batch, scalar)
    )
    headings_equal = all(
        b.heading_deg == s.heading_deg for b, s in zip(batch, scalar)
    )
    return {
        "n_headings": N_HEADINGS,
        "field_magnitude_t": FIELD_T,
        "chunk_size": CHUNK_ROWS,
        "scalar_s": round(scalar_s, 4),
        "batch_cold_s": round(cold_s, 4),
        "batch_warm_s": round(warm_s, 4),
        "speedup_cold": round(scalar_s / cold_s, 2),
        "speedup_warm": round(scalar_s / warm_s, 2),
        "max_count_divergence": int(divergence),
        "headings_bit_identical": headings_equal,
    }


def test_sweep1_batch_speedup(benchmark):
    record = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    rows = [
        f"scalar loop      : {record['scalar_s']:.3f} s",
        f"batch (cold)     : {record['batch_cold_s']:.3f} s "
        f"({record['speedup_cold']:.1f}x)",
        f"batch (warm)     : {record['batch_warm_s']:.3f} s "
        f"({record['speedup_warm']:.1f}x)",
        f"count divergence : {record['max_count_divergence']} "
        "(must be 0 — same bits, just faster)",
        f"record           : {RESULT_PATH.name}",
    ]
    emit("SWEEP1 batch engine vs scalar loop (72 headings)", rows)

    assert record["max_count_divergence"] == 0
    assert record["headings_bit_identical"]
    assert record["speedup_warm"] >= 5.0
