"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload factory-lot --seeds 1-10

Runs ``BENCHMARK.json``'s command once per seed, untraced, one run after
another, and prints each end-to-end metric's median and its quartile
spread ((Q3 - Q1) / median) next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in _seeds(args.seeds):
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        run = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=300
        )
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            print(f"seed {seed}: run failed\n{run.stderr}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        measured = ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items())
        print(f"seed {seed}: {measured}", flush=True)
    for metric in bench["end_to_end"]:
        column = values[metric["name"]]
        print(f"{metric['name']:16s} median {statistics.median(column):.5g}  "
              f"spread {quartile_spread(column):.4f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
