#!/usr/bin/env python3
"""Run the benchmark repeatedly and report the spread of each metric.

    python3 perfbench/steadiness.py [--workload NAME ...] [--seeds 1 2 ...]

Runs `perfbench/run.py` once per workload and seed, one run at a time,
from the repository root, with `run_seconds` from BENCHMARK.json.  For
each end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of that median
(`statistics.quantiles(values, n=4)`), next to the metric's bound.  The
full report, with each run's wall seconds for checking the run budget,
is printed as JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    """One run's result line and its wall seconds."""
    start = time.perf_counter()
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), time.perf_counter() - start


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = {}
    for workload in args.workload or names:
        runs, walls = [], []
        for seed in args.seeds:
            result, wall = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append(result)
            walls.append(wall)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall {wall:.1f} s", file=sys.stderr)
        rows = {}
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            row = {"values": values}
            if len(values) >= 2 and statistics.median(values):
                row["median"], row["spread"] = spread(values)
                if "bound" in metric:
                    row["bound"] = metric["bound"]
                    print(f"  {metric['name']:<16} median {row['median']:10.4f} "
                          f"spread {row['spread']:.3f} bound {metric['bound']}",
                          file=sys.stderr)
            rows[metric["name"]] = row
        report[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": walls,
            "metrics": rows,
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
