#!/usr/bin/env python3
"""The benchmark's own self-test.

    python3 t2bench/selftest.py [--seed 1] [--other-seed 2]

Checks, on one pass of each serial workload:
  * two runs at one seed give identical per-job node counts, LP iteration
    counts and areas (the serial product path is deterministic);
  * a second seed changes the node count of at least one proof_serial job
    and changes no proven area (the seed reorders the ILP, nothing else);
  * the traced run reproduces the untraced node and LP iteration counts
    (it fails its jobs otherwise) and passes every output check.
Exits 0 when every check holds.
"""
import argparse
import json
import os
import re
import subprocess
import sys

from run import BUILD, build

JOB_LINE = re.compile(r"^pass 0 (\S+)\s+k=(\d+)\s+\S+ area (\d+) bound \S+ "
                      r"nodes (\d+) lp (\d+)")


def run_once(workload, seed, trace=0):
    """Per-job (circuit, k, area, nodes, lp) of pass 0, and the result."""
    out = subprocess.run(
        [os.path.join(BUILD, "t2bench"), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    jobs = [m.groups() for m in map(JOB_LINE.match, out.stderr.splitlines())
            if m]
    return jobs, json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    args = parser.parse_args()
    build()
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in ("proof_serial", "root_bound"):
        first, r1 = run_once(workload, args.seed)
        second, r2 = run_once(workload, args.seed)
        check(r1["failed"] == 0 and r2["failed"] == 0,
              f"{workload}: every output check passes")
        check(first == second and len(first) > 0,
              f"{workload}: seed {args.seed} repeats nodes, LP iterations "
              "and areas")
        _, rt = run_once(workload, args.seed, trace=1)
        check(rt["failed"] == 0,
              f"{workload}: the traced run reproduces the untraced one")
        if workload == "proof_serial":
            other, _ = run_once(workload, args.other_seed)
            check(any(a[3] != b[3] for a, b in zip(first, other)),
                  f"{workload}: seed {args.other_seed} changes a node count")
            check([a[:3] for a in first] == [b[:3] for b in other],
                  f"{workload}: seed {args.other_seed} keeps every area")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
