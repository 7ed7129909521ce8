#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload <name> --seeds 1-10 \
        [--seconds S] [--trace 0|1]

For each metric prints the median, the quartiles of the per-seed values
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json. Use it to judge whether a workload is
steady, and on two commits to compare their medians.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds:
        start = time.monotonic()
        run = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        if run.returncode != 0:
            sys.stderr.write(run.stderr + run.stdout)
        result = json.loads(run.stdout.strip().split("\n")[-1])
        print(f"seed {seed}: exit {run.returncode}, correct "
              f"{result['correct']}, {time.monotonic() - start:.1f} s wall; " +
              ", ".join(f"{name} {m['value']:.6g}"
                        for name, m in result["metrics"].items()),
              file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        print(f"{name:32} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
