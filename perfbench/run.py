#!/usr/bin/env python3
"""Builds the dwrs benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zipf_ingest --seed 1 --seconds 10 --trace 0

The build (CMake, Release) goes to .bench_build/perfbench and the
durable rung's state to .bench_build/perfbench-state. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
The exit code is non-zero when the build fails or any output check
fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("zipf_ingest", "many_sites", "live_query")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
STATE_DIR = os.path.join(".bench_build", "perfbench-state")


def build(source_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "dwrs_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    try:
        binary = build(source_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    os.makedirs(STATE_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--state-dir", STATE_DIR]
    # A run measures for --seconds, then finishes its round in progress
    # (at least three rounds) and the once-per-run rungs; the margin
    # covers those at any --seconds.
    timeout_s = 2 * args.seconds + 120
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
