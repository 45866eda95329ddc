"""Host-time benchmark of the compass stack: one workload per process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-rated --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` splits the
time in two, runs the first half untraced and the second half with every
entry point in ``spans.ENTRY_POINTS`` wrapped, and reports the per-layer
metrics.  The first stdout line is a JSON run header; the last is the JSON
result.  A failed correctness check prints ``"correct": false`` with no
metrics and exits 1.  See ``perfbench/README.md``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread per process: set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up is measured in this process and in this many fresh children.
SETUP_CHILDREN = 2


def _commit() -> str:
    """The checkout's commit from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def _setup_samples(args) -> list:
    """Set-up time of ``SETUP_CHILDREN`` fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no compass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import Ledger, run_phase
    from metrics import END_TO_END, PER_LAYER, error_stats, layer_metrics, percentile
    from spans import ENTRY_POINTS, Tracer, installed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    ledger = Ledger()
    ledger.problems.extend(workload.setup())
    setup_s = time.perf_counter() - _PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu_count": os.cpu_count(),
        "params": workload.params,
    }
    if args.trace:
        header["entry_points"] = [e.target for e in ENTRY_POINTS]
    print(json.dumps({"header": header}), flush=True)

    first_seen: dict = {}
    if args.trace == 0:
        phase = run_phase(
            workload, args.seconds, len(workload.inputs) + 1, ledger, first_seen
        )
        samples = [setup_s] + _setup_samples(args)
        errors = [e for i in sorted(first_seen) for e in first_seen[i].errors]
        values = {
            "setup_s": statistics.median(samples),
            "ops_per_s": phase.ops_per_s,
            "peak_rss_mb": phase.peak_rss_mb,
            **error_stats(errors),
        }
        summary = {"rounds": len(phase.rounds), "setup_samples_s": samples}
        latencies = [x for i in sorted(first_seen) for x in first_seen[i].latencies_s]
        if latencies:
            summary["sim_p50_ms"] = percentile(latencies, 50) * 1e3
            summary["sim_p99_ms"] = percentile(latencies, 99) * 1e3
        print(json.dumps(summary))
        metrics = _metric_block(values, END_TO_END)
    else:
        untraced = run_phase(workload, args.seconds / 2, 1, ledger, first_seen)
        tracer = Tracer()
        with installed(tracer):
            traced = run_phase(workload, args.seconds / 2, 1, ledger, first_seen)
        values = layer_metrics(
            tracer, traced.ops, traced.wall_s, traced.counters(), traced.latencies_s()
        )
        values["trace.overhead"] = 1.0 - traced.ops_per_s / untraced.ops_per_s
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT_DIR / f"{args.workload}.spans.jsonl")
        print(json.dumps({
            "untraced_rounds": len(untraced.rounds),
            "traced_rounds": len(traced.rounds),
            "spans": len(tracer.spans),
        }))
        metrics = _metric_block(values, PER_LAYER)

    for problem in ledger.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics if ledger.correct else {},
    }))
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
