#!/usr/bin/env python3
"""Builds and runs the epoch-to-verdict benchmark.

    python3 epochbench/run.py --workload forum|conf|wiki_live --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark package (this directory) is built
in Release mode under $CARGO_TARGET_DIR (default .bench_build) from the checkout's
sources; the first run builds, later runs only re-check. The last line of standard
output is one JSON object with the keys correct, attempted, failed and metrics; --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of one traced run, whose
spans land in <build>/epochbench/spans/. Progress and a per-metric table go to standard
error. Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("forum", "conf", "wiki_live")
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path or None."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    binary = os.path.join(build_dir, "epoch_bench")
    return binary if os.path.exists(binary) else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None when it is absent."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    args = parse_args()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "epochbench")
    binary = build(build_dir)
    if binary is None:
        return 1

    work_dir = os.path.join(build_dir, "runs",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    out_dir = os.path.join(build_dir, "spans")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("run.py: benchmark exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("run.py: last line is not JSON: " + lines[-1], file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("run.py: unexpected result keys %s" % sorted(result), file=sys.stderr)
        return 1
    names = expected_metrics(args.trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        print("run.py: metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(names) - set(result["metrics"])),
            sorted(set(result["metrics"]) - set(names))), file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
