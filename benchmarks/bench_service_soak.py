"""SVC1 — chaos-soak record of the resilient heading service.

The fault campaign (FAULT1) proves every fault is detectable on a
single compass; this bench is the standing record of the *service*
claim: a 3-replica :class:`~repro.service.HeadingService` under a
seeded fault storm on a minority of replicas keeps **silent-wrong at
zero**, availability at or above 99%, and every served heading within
the paper's 1° spec.  The full record — availability, verdict mix,
attempt-count percentiles, breaker activity — is written to
``BENCH_service.json`` at the repo root.
"""

import time
from pathlib import Path

from conftest import emit
from repro.faults import ChaosSoak, SoakConfig
from repro.report import write_report

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

SOAK_REQUESTS = 200
SOAK_SEED = 0


def run_soak():
    config = SoakConfig(requests=SOAK_REQUESTS, seed=SOAK_SEED)
    t0 = time.perf_counter()
    report = ChaosSoak(config).run()
    elapsed = time.perf_counter() - t0
    return config, report, elapsed


def test_svc1_chaos_soak_record(benchmark):
    config, report, elapsed = benchmark.pedantic(
        run_soak, rounds=1, iterations=1
    )
    write_report(str(RESULT_PATH), report.to_dict())

    lines = report.summary().split("\n")
    lines.append(
        "per-verdict: "
        + ", ".join(
            f"{verdict}={count}"
            for verdict, count in sorted(report.verdicts.items())
        )
    )
    lines.append(
        f"latency p50/p99/p999 = "
        f"{report.latency_percentile(50.0) * 1e3:.2f} / "
        f"{report.latency_percentile(99.0) * 1e3:.2f} / "
        f"{report.latency_percentile(99.9) * 1e3:.2f} ms simulated "
        f"(directly comparable to BENCH_fleet.json phase percentiles)"
    )
    lines.append(
        f"{report.requests} requests in {elapsed:.2f}s wall "
        f"({report.sim_elapsed_s * 1e3:.1f} ms simulated)"
    )
    emit("SVC1 service chaos soak", lines)

    assert report.silent_wrong == 0
    assert report.availability >= config.availability_floor
    assert report.worst_error_deg <= config.tolerance_deg
    assert report.invariants_ok(
        config.availability_floor, config.tolerance_deg
    )
    record = report.to_dict()
    assert "latency_p999_ms" in record and "verdicts" in record
