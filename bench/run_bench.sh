#!/usr/bin/env bash
# Writes the Table-2 record BENCH_table2.json at the repo root and gates it
# against the one committed at HEAD.
#
# bench_table2 runs the Table-2 sweep through core::Synthesizer, the path
# `advbist synth` runs, once at threads=1 and once at threads=$(nproc) (a
# single pass when nproc is 1). Each pass appends threads=N to
# ADVBIST_BENCH_OPTS and writes to its own temporary directory; the passes
# are then merged into one record, stamped with the current commit.
# bench/gate.py checks the record against HEAD's (rules: docs/solver.md §5)
# and fails the script when a rule fires; ADVBIST_BENCH_ALLOW_REGRESSION=1
# downgrades that to a warning.
#
# Environment: ADVBIST_BENCH_OPTS="key=value ..." (solver options over the
# bench defaults time=20 threads=1, e.g. time=60 or ckpt-interval=0.5) and
# ADVBIST_CIRCUITS=a,b (circuit filter; a baseline row of another circuit
# is reported as missing, not failed).
#
# Usage: bench/run_bench.sh [build-dir]   (default build dir: ./build)
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

if [[ ! -x "$build_dir/bench_table2" ]]; then
  echo "bench_table2 not found in $build_dir — building..." >&2
  cmake -B "$build_dir" -S "$repo_root" >/dev/null
  cmake --build "$build_dir" --target bench_table2 -j >/dev/null
fi

export ADVBIST_GIT_COMMIT=$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)
opts=${ADVBIST_BENCH_OPTS:-}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

threads=(1)
hw=$(nproc)
[[ "$hw" -gt 1 ]] && threads+=("$hw")
records=()
for t in "${threads[@]}"; do
  mkdir "$tmp/threads$t"
  ADVBIST_BENCH_OUT="$tmp/threads$t" ADVBIST_BENCH_OPTS="$opts threads=$t" \
    "$build_dir/bench_table2"
  records+=("$tmp/threads$t/BENCH_table2.json")
done

# One row per line, as bench_table2 writes them, so the committed record
# diffs row by row.
record="$repo_root/BENCH_table2.json"
python3 - "$record" "${records[@]}" <<'EOF'
import json, sys
passes = [json.load(open(path)) for path in sys.argv[2:]]
head = {k: v for k, v in passes[0].items() if k not in ("rows", "generated")}
with open(sys.argv[1], "w") as out:
    out.write("{\n")
    for k, v in head.items():
        out.write(f'  "{k}": {json.dumps(v)},\n')
    for name, last in (("rows", False), ("generated", True)):
        rows = [json.dumps(r) for p in passes for r in p[name]]
        out.write(f'  "{name}": [\n' + ",\n".join("    " + r for r in rows))
        out.write("\n  ]" + ("\n" if last else ",\n"))
    out.write("}\n")
EOF
echo "run_bench: wrote $record"

if ! git -C "$repo_root" show HEAD:BENCH_table2.json >"$tmp/baseline.json" 2>/dev/null; then
  echo "run_bench: no BENCH_table2.json committed at HEAD; nothing to gate" >&2
  exit 0
fi
python3 "$repo_root/bench/gate.py" "$tmp/baseline.json" "$record"
