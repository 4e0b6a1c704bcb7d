#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs every workload several times, each with another seed, and reports
for each end-to-end metric its median and its quartile spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. Every spread, setup_s's too, must stay
within the metric's bound in BENCHMARK.json. With --compare, also checks
that no median got worse than the earlier set's by more than the bound.

    python3 perfbench/spread.py --runs 10 --first-seed 1 --out a.json
    python3 perfbench/spread.py --runs 10 --first-seed 101 --compare a.json

Run from the repository root. Exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) of `values` (>= 2 of them)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(old, new, better):
    """Share by which `new` is worse than `old` (<= 0 when not worse)."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return -change if better == "higher" else change


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: incorrect result %s" % (workload, seed, lines[-1]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    ok = True
    summary = {}
    for workload in workloads:
        values = {name: [] for name in metrics}
        started = time.time()
        for i in range(args.runs):
            try:
                measured = run_once(workload, args.first_seed + i,
                                    spec["run_seconds"])
            except (RuntimeError, subprocess.TimeoutExpired) as error:
                print("FAILED RUN: %s" % error)
                ok = False
                continue
            for name in metrics:
                values[name].append(measured[name])
        print("%-18s %.1f s per run" % (workload, (time.time() - started) / args.runs))
        if any(len(v) < 2 for v in values.values()):
            continue
        summary[workload] = {}
        for name, m in metrics.items():
            median, q1, q3, spread = quartile_spread(values[name])
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "values": values[name]}
            verdict = "ok"
            if spread > m["bound"]:
                verdict, ok = "SPREAD>BOUND", False
            elif spread > m["bound"] / 3:
                verdict = "spread>bound/3"
            if workload in earlier:
                old = earlier[workload][name]["median"]
                if worse_by(old, median, m["better"]) > m["bound"]:
                    verdict, ok = "WORSE", False
            print("%-18s %-22s median %-12.6g spread %6.3f bound %.2f  %s"
                  % (workload, name, median, spread, m["bound"], verdict))
            sys.stdout.flush()
        if args.out:
            with open(args.out, "w") as f:
                json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
