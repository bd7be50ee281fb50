#!/usr/bin/env bash
# End-to-end crash-safety smoke for `advbist serve`:
#
#   1. submit a mixed k-sweep batch into a fresh spool (one job with a
#      solver-option override),
#   2. start a serve and SIGTERM it mid-flight (drain),
#   3. assert nothing was lost (every job is either done or still pending),
#   4. restart the serve and assert every job finishes audit-verified,
#   5. re-submit one model under a new id and assert a cache hit,
#   6. in a fresh spool, put a job whose solve throws (fig1 has 2 modules,
#      so k=3 is out of range) ahead of a healthy one and assert the bad
#      job is quarantined as solve-error while the healthy one completes.
#
# Usage: tests/serve_smoke.sh [path-to-advbist-binary]
set -euo pipefail

BIN="${1:-./build/advbist}"
if [[ ! -x "$BIN" ]]; then
  echo "serve_smoke: binary not found: $BIN" >&2
  exit 1
fi

SPOOL="$(mktemp -d)"
SPOOL2="$(mktemp -d)"
trap 'rm -rf "$SPOOL" "$SPOOL2"' EXIT

echo "== submit batch =="
"$BIN" submit "$SPOOL" fig1 --k 1
"$BIN" submit "$SPOOL" fig1 --k 2 --cuts 0
"$BIN" submit "$SPOOL" tseng --k 1
"$BIN" submit "$SPOOL" tseng --k 2 --threads 2
"$BIN" submit "$SPOOL" paulin --k 2 --threads 2
[[ $(find "$SPOOL/jobs" -name "*.job" | wc -l) -eq 5 ]]

echo "== serve, SIGTERM mid-flight =="
"$BIN" serve "$SPOOL" --time 60 --ckpt-interval 0.05 > "$SPOOL/serve1.log" &
SERVE_PID=$!
sleep 2
if kill -TERM "$SERVE_PID" 2>/dev/null; then
  echo "(sent SIGTERM)"
else
  echo "(serve already finished — drain path not exercised this run)"
fi
SERVE1_RC=0
wait "$SERVE_PID" || SERVE1_RC=$?
cat "$SPOOL/serve1.log"
[[ "$SERVE1_RC" -eq 0 ]]  # a drain is not a failure

# Crash-safety invariant: every submitted job is accounted for — completed
# with a result file, or still pending on disk for the restart. None vanished.
DONE=$(find "$SPOOL/done" -name '*.result' | wc -l)
PENDING=$(find "$SPOOL/jobs" -name '*.job' | wc -l)
echo "after drain: $DONE done, $PENDING pending"
[[ $((DONE + PENDING)) -eq 5 ]]

echo "== restarted serve finishes the batch =="
"$BIN" serve "$SPOOL" --time 60 | tee "$SPOOL/serve2.log"
[[ $(find "$SPOOL/done" -name '*.result' | wc -l) -eq 5 ]]
[[ $(find "$SPOOL/jobs" -name '*.job' | wc -l) -eq 0 ]]
for f in "$SPOOL"/done/*.result; do
  grep -q '^status=optimal$' "$f" || { echo "not optimal: $f" >&2; exit 1; }
  grep -q '^verified=1$' "$f" || { echo "not verified: $f" >&2; exit 1; }
done
# If the drain interrupted a solve, the restart must have resumed it.
if [[ $PENDING -gt 0 ]]; then
  grep -Eq 'resumed|cached' "$SPOOL/serve2.log" || {
    echo "restart neither resumed nor cache-hit the pending jobs" >&2
    exit 1
  }
fi

echo "== same model under a new id is a cache hit =="
"$BIN" submit "$SPOOL" tseng --k 2 --job tseng-k2-again
"$BIN" serve "$SPOOL" --time 60 | tee "$SPOOL/serve3.log"
grep -q 'cached' "$SPOOL/serve3.log"

echo "== a throwing job is quarantined and the spool drains =="
"$BIN" submit "$SPOOL2" fig1 --k 3
"$BIN" submit "$SPOOL2" tseng --k 1 --job zz-after
SERVE4_RC=0
"$BIN" serve "$SPOOL2" --time 60 > "$SPOOL2/serve4.log" || SERVE4_RC=$?
cat "$SPOOL2/serve4.log"
[[ "$SERVE4_RC" -eq 1 ]]  # a failed job makes serve exit 1
grep -q '"kind": "solve-error"' "$SPOOL2/failed/fig1-k3.reason.json"
grep -q '^status=optimal$' "$SPOOL2/done/zz-after.result"
grep -q '^verified=1$' "$SPOOL2/done/zz-after.result"
[[ $(find "$SPOOL2/jobs" -name '*.job' | wc -l) -eq 0 ]]

echo "serve_smoke: OK"
