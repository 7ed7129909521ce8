#!/usr/bin/env python3
"""Build and run the pipeline benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first call builds perfbench/ (which
compiles the library from src/) into $CARGO_TARGET_DIR/perfbench, by default
.bench_build/perfbench; later calls only re-check the build. Build output
goes to stderr. The benchmark's output follows on stdout; its last line is the
JSON result. The exit code is nonzero when the build fails, a check fails,
or the printed metrics do not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(PACKAGE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "-j", jobs,
                 "--target", "pipeline_bench"]):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    return out / "pipeline_bench"


def commit():
    # The ceiling stops git from finding an enclosing repository when the
    # checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, env=env,
                                check=True)
        return result.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"unknown workload {args.workload}")
    # The metric set, its order and its units live only in BENCHMARK.json.
    active = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"build failed: {e}")

    run = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", str(out / "work"), "--commit", commit()],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        values = result.pop("values")
    except (json.JSONDecodeError, AttributeError, KeyError):
        sys.stdout.write(run.stdout)
        sys.exit(f"pipeline_bench exited {run.returncode} without a result")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    unknown = set(values) - {m["name"] for m in active}
    if unknown:
        sys.exit(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    # Every end-to-end metric must be measured; a per-layer metric the run
    # did not set belongs to a layer the workload bypasses and reads 0.
    missing = [m["name"] for m in active if m["name"] not in values]
    if missing and not args.trace:
        sys.exit(f"end-to-end metrics not measured: {missing}")
    result["metrics"] = {}
    for m in active:
        value = values.get(m["name"], 0.0)
        print(f"  {m['name']:<30} {value:16.6f} {m['unit']}")
        result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps(result), flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
