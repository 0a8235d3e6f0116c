#!/usr/bin/env python3
"""Builds and runs the SQL-in, result-out benchmark (see README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Configures and builds perfbench/CMakeLists.txt (the library sources in ../src
plus the benchmark binary) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, relative to the repository root, then runs one
workload, or all four in turn. Build output goes to stderr; stdout carries
the binary's output, whose last line is the (last workload's) result JSON.
Exits non-zero, printing no result, when the build or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_chain", "plan_chain", "olap_imdb", "learned_stats")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(directory):
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", directory],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", directory, "--target", "lqo_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(directory, "lqo_perfbench")


def run_workload(binary, directory, workload, args):
    """Runs one workload; returns its stdout lines, or None on failure."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(
            directory, f"spans-{workload}-{args.seed}.tsv")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return None
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: {workload}: benchmark exited with {run.returncode}",
              file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(f"perfbench: {workload}: no result line", file=sys.stderr)
        return None
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    directory = build_dir()
    try:
        binary = build(directory)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outputs = []
    for workload in workloads:
        lines = run_workload(binary, directory, workload, args)
        if lines is None:
            return 1
        outputs.append("\n".join(lines))
    print("\n".join(outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
