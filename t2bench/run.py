#!/usr/bin/env python3
"""Builds the Table-2 benchmark from source and runs one workload.

    python3 t2bench/run.py --workload proof_serial --seed 1 --seconds 40 --trace 0

Run from the repository root. The build goes to .bench_build/t2bench (the
first run configures and compiles the advbist library, later runs only
check that it is up to date). Build output goes to stderr; the last line
of stdout is the benchmark's JSON result. With --trace 1 the spans are
written to .bench_build/t2bench/trace-<workload>-<seed>.jsonl.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "t2bench")
RUN_TIMEOUT_S = 175


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "t2bench", "-j",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"t2bench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "t2bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, f"trace-{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print(f"t2bench: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"t2bench: exited {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("t2bench: malformed result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
