"""REPLAY1 — back-end replay speedup over live re-simulation.

The point of the replay log is that a recorded run can be re-examined
*cheaply*: the expensive analogue front-end (excitation synthesis,
amplifier, comparator edge extraction) is already folded into the
recorded pulse edges, so back-end replay only re-runs the counters and
the CORDIC.  This bench records a 72-heading turntable sweep once, then
times three ways of re-deriving its headings:

* **live** — re-simulating the full stepped chain from scratch (the
  baseline a debugging session would otherwise pay per hypothesis);
* **replay** — :class:`~repro.replay.ReplayPlayer` re-executing the
  digital back-end from the recorded pulses, bit-exactly;
* **verify** — the same replay plus the stage-by-stage conformance
  check against the recorded values.

The contract asserted (and written to ``BENCH_replay.json``): replay is
bit-exact and at least 5x faster than live re-simulation.  Both figures
are stepped-engine figures: a recording is of the stepped chain, so the
live side pins ``FrontEndConfig(fastpath=False)``.  A default compass
re-simulates on the certified closed-form fast path instead, which a
back-end replay only about matches (~1x on a 2-core Xeon).
"""

import io
import json
import time
from pathlib import Path

from conftest import emit
from repro.analog.frontend import FrontEndConfig
from repro.core.compass import CompassConfig, IntegratedCompass
from repro.core.heading import headings_evenly_spaced
from repro.replay import LogRecorder, ReplayPlayer, attach_recorder, read_log

N_HEADINGS = 72
FIELD_T = 50.0e-6
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_replay.json"


def run_comparison():
    headings = headings_evenly_spaced(N_HEADINGS, 0.5)

    buffer = io.StringIO()
    compass = IntegratedCompass()
    attach_recorder(compass, LogRecorder(buffer))
    t0 = time.perf_counter()
    recorded = [
        compass.measure_heading(h, field_magnitude_t=FIELD_T)
        for h in headings
    ]
    record_s = time.perf_counter() - t0
    compass.observer.close()
    log_text = buffer.getvalue()

    # Live re-simulation of a recording is a stepped measurement: a
    # recording is always of the stepped chain.
    live_compass = IntegratedCompass(
        CompassConfig(front_end=FrontEndConfig(fastpath=False))
    )
    t0 = time.perf_counter()
    live = [
        live_compass.measure_heading(h, field_magnitude_t=FIELD_T)
        for h in headings
    ]
    live_s = time.perf_counter() - t0

    reader = read_log(io.StringIO(log_text))
    player = ReplayPlayer(reader.header)
    t0 = time.perf_counter()
    replayed = player.replay(reader)
    replay_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    player.verify(reader)
    verify_s = time.perf_counter() - t0

    bit_exact = all(
        fresh.heading_deg == record.heading_deg
        and fresh.counter == record.counter
        for fresh, record in zip(replayed, reader)
    )
    live_matches = all(
        measurement.heading_deg == record.heading_deg
        for measurement, record in zip(live, reader)
    )
    return {
        "n_headings": N_HEADINGS,
        "field_magnitude_t": FIELD_T,
        "log_bytes": len(log_text.encode("utf-8")),
        "record_s": round(record_s, 4),
        "live_s": round(live_s, 4),
        "replay_s": round(replay_s, 4),
        "verify_s": round(verify_s, 4),
        "speedup_replay": round(live_s / replay_s, 2),
        "speedup_verify": round(live_s / verify_s, 2),
        "record_overhead_pct": round(100.0 * (record_s / live_s - 1.0), 1),
        "replay_bit_exact": bit_exact,
        "live_matches_recording": live_matches,
        "recorded_count": len(recorded),
    }


def test_replay1_backend_replay_speedup(benchmark):
    record = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    rows = [
        f"live re-simulation : {record['live_s']:.3f} s",
        f"back-end replay    : {record['replay_s']:.3f} s "
        f"({record['speedup_replay']:.1f}x)",
        f"replay + verify    : {record['verify_s']:.3f} s "
        f"({record['speedup_verify']:.1f}x)",
        f"recording overhead : {record['record_overhead_pct']:+.1f}% "
        "over an unrecorded run",
        f"log size           : {record['log_bytes']} bytes "
        f"for {record['n_headings']} measurements",
        f"record             : {RESULT_PATH.name}",
    ]
    emit("REPLAY1 back-end replay vs live re-simulation (72 headings)", rows)

    assert record["replay_bit_exact"]
    assert record["live_matches_recording"]
    assert record["speedup_replay"] >= 5.0
