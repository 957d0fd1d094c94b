#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --runs 10 --first-seed 101

Every workload in BENCHMARK.json runs untraced for its run_seconds, one run
per seed. Workloads are interleaved (seed 1: every workload, then seed 2,
...), so a slow host phase touches all of them alike. For each workload and
metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median, and
writes every run's result to .bench_build/perfbench-out/spread-<first-seed>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            results[workload].append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    out = os.path.join(ROOT, ".bench_build", "perfbench-out", f"spread-{args.first_seed}.json")
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    print(f"\n{'workload':<10} {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'failed':>8} correct")
    for workload, runs in results.items():
        failed = max(r["failed"] / r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            print(f"{workload:<10} {name:<28} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.3f} {bound if bound is not None else '-':>6} "
                  f"{failed:>8.3g} {correct}")


if __name__ == "__main__":
    main()
