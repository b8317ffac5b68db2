#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Configures and builds perfbench/ (the
library from src/, bds_worker and the bds_perf measuring program) in
Release mode under $CARGO_TARGET_DIR, or .bench_build when unset, then runs
one workload. The human-readable report goes to standard output and its
last line is the JSON result object. Exits non-zero, without a result
line, when the build, the run or the result check fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("dblp-inproc", "dblp-process", "exemplar-inproc", "serve-churn")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    bench_build = os.path.join(build_dir, "perfbench")
    steps = []
    # A configured tree re-runs cmake by itself when a build file changed.
    if not os.path.exists(os.path.join(bench_build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      bench_build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bench_build, "-j", "4",
                  "--target", "bds_perf", "bds_worker"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bench_build, "bds_perf")


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    if result["attempted"] < 1:
        raise ValueError("no operation attempted")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("perfbench: bds_perf exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        check_result(lines[-1])
    except ValueError as err:
        print("perfbench: bad result line: %s" % err, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
