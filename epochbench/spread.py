#!/usr/bin/env python3
"""Checks how steady the benchmark is: runs run.py once per seed and reports, for each
end-to-end metric, the median and the interquartile spread (Q3 - Q1 of the runs, as
statistics.quantiles(values, n=4) gives them) as a share of the median, next to the
metric's bound from BENCHMARK.json.

    python3 epochbench/spread.py --workload forum --seeds 1-10 [--seconds S] [--json F]

Run from the root of the checkout. --seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, action="append")
    p.add_argument("--seeds", required=True, type=seed_list)
    p.add_argument("--seconds", type=int)
    p.add_argument("--json", help="append every run's result to this JSON-lines file")
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    failed = False
    for workload in args.workload:
        values = {}
        for seed in args.seeds:
            start = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)" % (workload, seed, proc.returncode))
                failed = True
                continue
            result = json.loads(lines[-1])
            if args.json:
                with open(args.json, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "result": result}) + "\n")
            if not result["correct"] or result["failed"]:
                failed = True
            print("%s seed %d: %.0f s, correct=%s %d/%d" % (
                workload, seed, time.time() - start, result["correct"], result["failed"],
                result["attempted"]), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print("  %-8s %-28s median %12.6g  spread %6.3f  bound %s%s" % (
                workload, name, med, spread, bound, flag))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
