#!/usr/bin/env python3
"""Entry point of the whoiscrf benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

builds the library, the `whoiscrf` CLI and the driver from source into
.bench_build/perfbench (the first run builds; later runs only re-check),
then runs one workload. The driver's last stdout line is the JSON result.

  python3 perfbench/run.py --steadiness 10 --workload census --seconds 30

runs one workload K times with seeds 1..K and prints, per end-to-end
metric, the median and quartiles against the bound in BENCHMARK.json.

  python3 perfbench/run.py --selftest

builds and runs the benchmark's own unit tests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("census", "census-cascade")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no whoiscrf sources next to the benchmark "
            "(expected src/CMakeLists.txt at the checkout root)")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def run_once(workload, seed, seconds, trace, capture):
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(WORK_DIR, workload),
           "--cli", os.path.join(BUILD_DIR, "whoiscrf", "cli", "whoiscrf")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    return proc.returncode, proc.stdout


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for k in range(args.steadiness):
        seed = args.seed + k
        code, out = run_once(args.workload, seed, args.seconds, 0, True)
        if code != 0 or not out:
            log("perfbench: run with seed %d failed (exit %d)" % (seed, code))
            return 1
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            log("perfbench: seed %d: correct=%s failed=%d"
                % (seed, result["correct"], result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log("seed %d: %s" % (seed, json.dumps(
            {n: round(m["value"], 5) for n, m in result["metrics"].items()})))
    print("%-16s %12s %12s %12s %8s %8s %s" % (
        "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, float("nan"))
        verdict = "ok" if spread <= bound / 3 else (
            "within bound" if spread <= bound else "TOO NOISY")
        print("%-16s %12.6g %12.6g %12.6g %8.4f %8.3f %s" % (
            name, q1, med, q3, spread, bound, verdict))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="K")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_test"):
            return 2
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 2
    if args.steadiness:
        return steadiness(args)
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
