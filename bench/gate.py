#!/usr/bin/env python3
"""Gates a Table-2 record (BENCH_table2.json) against a committed baseline.

Usage: bench/gate.py BASELINE CURRENT

Exits 1 when a rule fires, 0 otherwise. ADVBIST_BENCH_ALLOW_REGRESSION=1
downgrades a failure to a warning. The rules (docs/solver.md §5):

- Proofs hold. A baseline row that is "optimal" and audit-verified must
  come back "optimal" with the same area at the same (circuit, k, threads).
  A generated row that is "optimal" or "infeasible" must come back with
  the same status (and objective, when optimal).
- Soundness. Over both records and every thread pass, no finite bound of
  a (circuit, k) or generated model may exceed any of its areas
  (objectives) by more than 1e-6: that would be a wrong proof or an
  invalid design.
- Checkpoint overhead. A row that wrote snapshots may spend at most half
  its wall clock writing them.

Rows that stop on a limit are recorded, not gated: at a time cap their
areas and bounds move with machine load. Baseline rows with no current
counterpart (a restricted ADVBIST_CIRCUITS run, another nproc) are
reported as missing.
"""
import json
import os
import sys

TOL = 1e-6


def circuit_key(row):
    return (row["circuit"], row["k"], row["threads"])


def model_key(row):
    return (row["model"], row["threads"])


def proof_failures(baseline, current):
    failures, missing = [], []
    now = {circuit_key(r): r for r in current["rows"]}
    for old in baseline["rows"]:
        if old["status"] != "optimal" or not old["audit_verified"]:
            continue
        new = now.get(circuit_key(old))
        if new is None:
            missing.append(circuit_key(old))
        elif new["status"] != "optimal" or new["area"] != old["area"]:
            failures.append(f"PROOF LOST at {circuit_key(old)}: optimal "
                            f"{old['area']} -> {new['status']} {new['area']}")
    now = {model_key(r): r for r in current["generated"]}
    for old in baseline["generated"]:
        if old["status"] not in ("optimal", "infeasible"):
            continue
        new = now.get(model_key(old))
        if new is None:
            missing.append(model_key(old))
        elif new["status"] != old["status"] or (
                old["status"] == "optimal" and
                abs(new["objective"] - old["objective"]) > TOL):
            failures.append(f"PROOF LOST at {model_key(old)}: {old['status']} "
                            f"{old['objective']} -> {new['status']} "
                            f"{new['objective']}")
    return failures, missing


def soundness_failures(records):
    groups = {}
    for record in records:
        for r in record["rows"]:
            groups.setdefault((r["circuit"], r["k"]), []).append(
                (r["area"], r["bound"]))
        for r in record["generated"]:
            groups.setdefault((r["model"],), []).append(
                (r["objective"], r["bound"]))
    failures = []
    for key, pairs in sorted(groups.items()):
        bounds = [b for _, b in pairs if b is not None]
        values = [v for v, _ in pairs if v is not None]
        if bounds and values and max(bounds) > min(values) + TOL:
            failures.append(f"UNSOUND at {key}: bound {max(bounds)} exceeds "
                            f"area {min(values)}")
    return failures


def checkpoint_failures(current):
    return [f"CHECKPOINT OVERHEAD at {circuit_key(r)}: "
            f"{r['checkpoint_seconds']:.3f}s of {r['seconds']:.3f}s spent "
            "writing snapshots"
            for r in current["rows"]
            if r["checkpoints"] > 0 and
            r["checkpoint_seconds"] > 0.5 * max(r["seconds"], 1e-9)]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    with open(argv[2]) as f:
        current = json.load(f)

    failures, missing = proof_failures(baseline, current)
    failures += soundness_failures([baseline, current])
    failures += checkpoint_failures(current)
    for key in missing:
        print(f"gate: note: no current row for {key}; its baseline proof was "
              "not re-verified", file=sys.stderr)
    for failure in failures:
        print(f"gate: {failure}", file=sys.stderr)
    if not failures:
        print(f"gate: {len(current['rows'])} rows and "
              f"{len(current['generated'])} generated rows pass against "
              f"{argv[1]}")
        return 0
    if os.environ.get("ADVBIST_BENCH_ALLOW_REGRESSION") == "1":
        print("gate: failures ALLOWED by ADVBIST_BENCH_ALLOW_REGRESSION=1",
              file=sys.stderr)
        return 0
    print("gate: FAILING. If the loss is intended (a lossy experiment), "
          "re-run with ADVBIST_BENCH_ALLOW_REGRESSION=1 to downgrade this "
          "failure to a warning; see docs/solver.md.", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
