#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median and spread (interquartile range as a share of the median), next to
the bound BENCHMARK.json gives it.

    python3 perfbench/spread.py --workload fabric_stream --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --seconds 20

A spread at or above a third of the bound is flagged: the benchmark should
be steadier than that on an idle host.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: %s\n%s" % (" ".join(cmd), out.stderr[-2000:]))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {}
        for seed in seeds_of(args.seeds):
            result = run(workload, seed, seconds, 0)
            if not result["correct"]:
                print("%s seed %d: correct=false" % (workload, seed))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s (%d seeds, %g s each)" % (workload, len(seeds_of(args.seeds)), seconds))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, 0)
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- spread >= bound/3"
            if name != "setup_s":
                worst = max(worst, spread / bound if bound else 0)
            print("  %-16s median %-14.6g spread %.4f bound %.2f%s" % (name, med, spread, bound, flag))
            print("  %-16s values %s" % ("", " ".join("%.6g" % v for v in vals)))
    print("worst spread / bound (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
