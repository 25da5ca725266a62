#!/bin/sh
# Service smoke test: boots pao_serve on a Unix-domain socket, drives a
# load -> move -> query -> save -> report flow through pao_client, then a
# move -> revert -> orient -> save -> (incremental) report flow, and
# asserts the service-level equivalence contract: the daemon's report for a
# mutated tenant is byte-identical — after normalizeForCompare and modulo
# the producer-specific tool/session/cache/metrics keys — to `pao_cli
# analyze` run fresh over the design the daemon saved.
#
# usage: serve_smoke.sh <pao_cli> <pao_serve> <pao_client> <report_check> <workdir>
set -eu

CLI=$1
SERVE=$2
CLIENT=$3
CHECK=$4
WORK=$5

rm -rf "$WORK"
mkdir -p "$WORK"
SOCK="$WORK/serve.sock"

"$CLI" gen 0 0.005 "$WORK/case" >/dev/null 2>&1

"$SERVE" --socket "$SOCK" --deterministic 2>"$WORK/daemon.log" &
DAEMON=$!
# Kill the daemon on any exit path so a failing assertion can't leak it.
trap 'kill "$DAEMON" 2>/dev/null || true; wait "$DAEMON" 2>/dev/null || true' EXIT

# pao_client retries connect for ~2s, which covers daemon startup.
"$CLIENT" --socket "$SOCK" \
  "{\"cmd\":\"load\",\"tenant\":\"t1\",\"lef\":\"$WORK/case.lef\",\"def\":\"$WORK/case.def\"}" \
  >"$WORK/load.json"
grep -q '"ok":true' "$WORK/load.json"

"$CLIENT" --socket "$SOCK" \
  '{"cmd":"move","tenant":"t1","inst":0,"dx":380}' \
  '{"cmd":"orient","tenant":"t1","inst":1,"orient":"MY"}' \
  '{"cmd":"query","tenant":"t1"}' \
  >"$WORK/mutate.json"
grep -q '"dirtyClusters"' "$WORK/mutate.json"

"$CLIENT" --socket "$SOCK" \
  "{\"cmd\":\"save\",\"tenant\":\"t1\",\"def\":\"$WORK/post.def\"}" >/dev/null
test -s "$WORK/post.def"

"$CLIENT" --socket "$SOCK" --extract result.report \
  '{"cmd":"report","tenant":"t1"}' >"$WORK/serve_report.json"
"$CHECK" report "$WORK/serve_report.json"

# Metrics snapshot must be a schema-valid registry dump (ops-metrics like
# pao.serve.* live here, deliberately outside the equivalence compare).
"$CLIENT" --socket "$SOCK" '{"cmd":"metrics"}' >"$WORK/metrics.json"
"$CHECK" metrics "$WORK/metrics.json"
grep -q '"tenants":1' "$WORK/metrics.json"
grep -q '"inflight":0' "$WORK/metrics.json"

# The tentpole assertion: fresh batch analysis of the saved design produces
# the same normalized report. analyze may exit 1 (quality failure: failed
# pins) on a mutated placement — that is a legal outcome; the reports must
# still agree.
compare_with_batch() {  # <saved def> <serve report> <tag>
  rc=0
  "$CLI" analyze "$WORK/case.lef" "$1" \
    --report-json "$WORK/analyze_$3.json" >/dev/null 2>&1 || rc=$?
  if [ "$rc" -gt 1 ]; then
    echo "serve_smoke: pao_cli analyze failed with rc=$rc" >&2
    exit 1
  fi
  "$CHECK" compare "$2" "$WORK/analyze_$3.json" \
    --ignore tool --ignore session --ignore cache --ignore metrics
}
compare_with_batch "$WORK/post.def" "$WORK/serve_report.json" first

# A second report after move -> revert -> orient re-checks only the pins
# those edits can reach, and must equal batch just the same.
"$CLIENT" --socket "$SOCK" \
  '{"cmd":"move","tenant":"t1","inst":3,"dx":760}' \
  '{"cmd":"move","tenant":"t1","inst":3,"dx":-760}' \
  '{"cmd":"orient","tenant":"t1","inst":5,"orient":"MY"}' \
  "{\"cmd\":\"save\",\"tenant\":\"t1\",\"def\":\"$WORK/post2.def\"}" \
  >"$WORK/mutate2.json"
"$CLIENT" --socket "$SOCK" --extract result.report \
  '{"cmd":"report","tenant":"t1"}' >"$WORK/serve_report2.json"
"$CHECK" report "$WORK/serve_report2.json"
compare_with_batch "$WORK/post2.def" "$WORK/serve_report2.json" second

# Clean shutdown: the daemon must exit 0 on the shutdown command.
"$CLIENT" --socket "$SOCK" '{"cmd":"shutdown"}' >/dev/null
trap - EXIT
if ! wait "$DAEMON"; then
  echo "serve_smoke: daemon exited non-zero" >&2
  exit 1
fi

echo "serve_smoke: OK"
