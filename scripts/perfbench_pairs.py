#!/usr/bin/env python3
"""Paired perfbench runs of two source trees, parent and change, alternated.

    python3 scripts/perfbench_pairs.py --parent <tree> --change <tree> \
        [--workloads plan_chain,serve_chain] [--pairs 3] [--seconds 30] \
        [--seeds 1,2,3] [--build-dir <dir>] [--json <file>]

Builds each tree's perfbench/CMakeLists.txt (its default build type) into
its own directory under --build-dir, then runs K pairs per workload. Pair k
uses seed seeds[k % len(seeds)] and runs parent first when k is even,
change first when k is odd, so a drift in host load falls on both sides.

Prints, per workload and metric, the median, min and max of each side and
the change/parent ratio of the medians; then every run's seed,
latency_samples, inputs_fp, result_fp and correct flag. A pair is flagged
when its two sides differ in fingerprints or correctness, or when their
latency sample counts round up to different powers of two: the latency
vectors grow by doubling, so such a pair's peak_rss_mb differs by a step
that is not the change's doing. Exits 1 if a build or a run fails, or any
pair has differing fingerprints or an incorrect run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 600


def build(tree, directory):
    source = os.path.join(os.path.abspath(tree), "perfbench")
    if not os.path.isfile(os.path.join(source, "CMakeLists.txt")):
        raise OSError(f"no perfbench/CMakeLists.txt under {tree}")
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", source, "-B", directory],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", directory, "--target", "lqo_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(directory, "lqo_perfbench")


def run(binary, workload, seed, seconds):
    """One untraced run: its input line merged with its result line."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: {binary} exited with "
                           f"{done.returncode}")
    inputs, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "latency_samples": inputs["latency_samples"],
            "inputs_fp": inputs["inputs_fp"], "result_fp": inputs["result_fp"],
            "correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def capacity_bits(samples):
    """log2 of the power of two a doubling vector of `samples` ends at."""
    return max(samples - 1, 0).bit_length()


def pair_flags(parent, change):
    flags = []
    for key in ("inputs_fp", "result_fp"):
        if parent[key] != change[key]:
            flags.append(f"{key} differs")
    if not (parent["correct"] and change["correct"]):
        flags.append("incorrect run")
    bits = sorted(capacity_bits(r["latency_samples"])
                  for r in (parent, change))
    if bits[0] != bits[1]:
        flags.append(f"latency_samples straddle {1 << bits[0]}: "
                     "peak_rss_mb steps")
    return flags


def report(workload, pairs):
    print(f"\n== {workload}: {len(pairs)} pairs")
    metrics = list(pairs[0][0]["metrics"])
    print(f"{'metric':<22} {'parent median [min, max]':>34} "
          f"{'change median [min, max]':>34} {'ratio':>7}")
    for name in metrics:
        sides = []
        for side in (0, 1):
            values = [pair[side]["metrics"][name] for pair in pairs]
            sides.append((statistics.median(values), min(values), max(values)))
        ratio = sides[1][0] / sides[0][0] if sides[0][0] else float("nan")
        cells = [f"{m:.6g} [{lo:.6g}, {hi:.6g}]" for m, lo, hi in sides]
        print(f"{name:<22} {cells[0]:>34} {cells[1]:>34} {ratio:>7.4f}")
    print(f"{'pair':<5} {'seed':>4} {'side':<7} {'samples':>8} "
          f"{'inputs_fp':<18} {'result_fp':<18} correct")
    broken = False
    for k, (parent, change) in enumerate(pairs):
        for label, r in (("parent", parent), ("change", change)):
            print(f"{k:<5} {r['seed']:>4} {label:<7} {r['latency_samples']:>8} "
                  f"{r['inputs_fp']:<18} {r['result_fp']:<18} {r['correct']}")
        flags = pair_flags(parent, change)
        if flags:
            print(f"      FLAG pair {k}: " + "; ".join(flags))
        broken |= any(not f.startswith("latency_samples") for f in flags)
    return broken


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent source tree")
    parser.add_argument("--change", required=True, help="changed source tree")
    parser.add_argument("--workloads", default="plan_chain",
                        help="comma-separated perfbench workloads")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated seeds, cycled over the pairs")
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, ".bench_build", "pairs"),
                        help="builds go to <dir>/parent and <dir>/change")
    parser.add_argument("--json", help="also write every run to this file")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 1 or args.seconds < 1 or not seeds:
        parser.error("--pairs and --seconds must be >= 1, --seeds non-empty")

    try:
        binaries = [build(args.parent, os.path.join(args.build_dir, "parent")),
                    build(args.change, os.path.join(args.build_dir, "change"))]
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench_pairs: build failed: {error}", file=sys.stderr)
        return 1

    runs = {}
    broken = False
    for workload in args.workloads.split(","):
        pairs = []
        for k in range(args.pairs):
            seed = seeds[k % len(seeds)]
            order = (0, 1) if k % 2 == 0 else (1, 0)
            pair = [None, None]
            try:
                for side in order:
                    pair[side] = run(binaries[side], workload, seed,
                                     args.seconds)
            except (RuntimeError, subprocess.TimeoutExpired,
                    json.JSONDecodeError, KeyError) as error:
                print(f"perfbench_pairs: {error}", file=sys.stderr)
                return 1
            print(f"{workload} pair {k} seed {seed}: parent "
                  f"{pair[0]['metrics']['throughput_qps']:.1f} q/s, change "
                  f"{pair[1]['metrics']['throughput_qps']:.1f} q/s",
                  file=sys.stderr)
            pairs.append(pair)
        broken |= report(workload, pairs)
        runs[workload] = [{"parent": p, "change": c} for p, c in pairs]
    if args.json:
        with open(args.json, "w") as out:
            json.dump(runs, out, indent=1)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
