#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <train_gcn|train_gat|serve_gcn> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test      # build and run the checks' own tests

The driver and the repository's library targets are compiled into
.bench_build/perfbench (outside every timed number); run records and traces
go to .bench_build/perfbench-out. The last line of standard output is the
run's JSON result; it is printed only when it carries every metric that
BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer
with --trace 1), in its unit, as a finite number. Without the repository's
sources next to this directory the build fails and the script exits non-zero
without a result.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")

# Threads per workload (SEASTAR_NUM_THREADS). The training workloads run one
# thread: on a shared 4-vCPU host a second thread made train_gat no faster
# and its epoch time less repeatable (README). serve_gcn runs a pool of two
# beside the serving thread and the request generator.
THREADS = {"train_gcn": 1, "train_gat": 1, "serve_gcn": 2}

# A run exits within 180 s; the driver itself stops measuring after
# --seconds, so this only catches a hung program.
RUN_TIMEOUT_S = 170


def build(targets):
    jobs = str(os.cpu_count() or 1)
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    for command in (configure, compile_):
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(command)}")


def check_result(line, trace):
    """Returns why the driver's result line does not match the manifest, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    wanted = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        values = [m["value"] for m in result["metrics"].values()]
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable result line: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(wanted) & set(got) if wanted[n] != got[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {units}"
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return "a metric value is not a finite number"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(THREADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="run the checks' tests")
    args = parser.parse_args()

    if args.test:
        build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    build(["perfbench_driver"])
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, SEASTAR_NUM_THREADS=str(THREADS[args.workload]))
    command = [
        os.path.join(BUILD, "perfbench_driver"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", OUT,
    ]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: driver exited with {done.returncode}")
    problem = check_result(lines[-1], args.trace)
    if problem:
        sys.stderr.write(done.stdout)
        sys.exit(f"perfbench: {problem}")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
