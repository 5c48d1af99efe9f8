#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see mbrcbench/README.md).

    python3 mbrcbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 mbrcbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
mbrc libraries and the benchmark driver (Release) into .bench_build/; later
calls rebuild incrementally. The driver's stdout is passed through; its last
line is the result object. The exit code is non-zero, with no result line,
when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "mbrcbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds the driver and the gate self-test."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "mbrcbench", "mbrcbench_selftest"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write("build failed: %s\n" % " ".join(cmd))
            return False
    return True


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "mbrcbench_selftest")],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode

    cmd = [os.path.join(BUILD, "mbrcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--trace-out", os.path.join(".bench_build", "traces")]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
        sys.stderr.write("benchmark run failed (exit %d)\n" % done.returncode)
        return 1
    result = json.loads(lines[-1])
    expected = declared_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("metric names differ from BENCHMARK.json: %s\n"
                         % sorted(set(expected) ^ set(result["metrics"])))
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
