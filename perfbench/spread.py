#!/usr/bin/env python3
"""Run one workload with seeds 1..runs and print, per end-to-end metric,
the median and the spread: the distance between the first and third
quartiles as a share of the median (statistics.quantiles(values, n=4)),
set against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload get_pipelined --runs 10

Each run measures for BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(1, a.runs + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
             "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
        r = json.loads(out[-1])
        print("seed %d: correct=%s failed=%d %s" % (
            seed, r["correct"], r["failed"],
            " ".join("%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items())),
            flush=True)
        for k, v in r["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        b = bounds[k]
        print("%-36s median %-12.5g spread %.3f  bound %.2f (%s)" % (
            k, med, spread, b, "ok" if spread < b / 3 else "over a third of it"))


if __name__ == "__main__":
    main()
