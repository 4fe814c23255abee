#!/usr/bin/env python3
"""Seed-to-seed spread of the workload benchmark.

Runs the command in BENCHMARK.json on each of its workloads, once per
seed 1 to 10, and prints, per end-to-end metric, the median over the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread
above a third of the metric's bound is flagged WIDE.

usage (from the repository root):
    python3 workload-bench/spread.py
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in bench["workloads"]:
        name = workload["name"]
        values = {}
        for seed in SEEDS:
            cmd = bench["command"] + [
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0",
            ]
            run = subprocess.run(cmd, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {run.returncode}\n{run.stderr}")
            result = json.loads(lines[-1])
            if set(result["metrics"]) != set(bounds):
                sys.exit(f"{name} seed {seed}: metrics {sorted(result['metrics'])} "
                         f"differ from BENCHMARK.json {sorted(bounds)}")
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{name} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        print(f"{name} (seeds {SEEDS.start} to {SEEDS.stop - 1})")
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds[metric]
            flag = "WIDE" if spread > bound / 3 and metric != "setup_s" else "ok"
            ok &= flag == "ok"
            print(f"  {metric:<20} median {median:<14.6g} spread {spread:7.4f}"
                  f"  bound {bound:<5} {flag}")
            print(f"    values {[round(v, 6) for v in vals]}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
