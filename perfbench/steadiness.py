#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the benchmark is judged.

    python3 perfbench/steadiness.py --runs 10 [--workloads congest_dense ...]

Runs perfbench/run.py once per seed (1..runs) on each workload, with the
run length from BENCHMARK.json, and prints per metric the median and the
quartile spread (Q3 - Q1) / median next to the metric's bound. Every run must
report correct output. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--json", help="also write the raw values here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect output")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        raw[workload] = values
        print(f"{workload} ({args.runs} runs)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:<14} median {med:<14.6g} spread {spread:7.2%}"
                  f"  bound {bounds[name]:.0%}")
    print(f"largest spread/bound outside setup_s: {worst:.2f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
