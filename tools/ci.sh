#!/bin/sh
# CI entry point: twelve legs over the same tree —
#   1. Release        (the tier-1 gate: fast, optimizer-exposed UB surfaces;
#                      ctest includes the pao_lint_tree static-analysis gate)
#      plus a Release stream fuzz (pao_fuzz stream: 3x20000 cases of
#      the chunked DEF parser against the single-pass reference parser)
#   2. Perfbench build (compile only: the benchmark driver, a standalone
#                      CMake project over src/, must build against the
#                      current library API)
#   3. Lint           (explicit pao_lint run over src/tools/tests/examples/
#                      bench with --design-doc DESIGN.md, so the whole-
#                      program rules — layering, lock-discipline,
#                      catalog-drift — gate alongside the per-file ones;
#                      fails on any unsuppressed finding. A second pass
#                      renders --format sarif and report_check validates
#                      the artifact's SARIF 2.1.0 shape)
#   4. Obs smoke      (analyze with --report-json/--trace-out on a smoke
#                      preset, validated by report_check: schema, trace span
#                      nesting, and threads-1-vs-4 report equivalence; plus
#                      the profile smoke: analyze --profile-out on the mixed
#                      preset at --threads 4 must emit a valid pao-report/2
#                      whose headroom exceeds 1)
#   5. Scale smoke    (huge-preset gen -> analyze --stream -> report_check
#                      ingest -> bench_scale self-checks; PAO_CI_SCALE=1
#                      for the full ~1.5M-instance acceptance run)
#   6. Fault matrix   (tests/fault_matrix.sh: every cataloged fault point
#                      under --keep-going recovers or degrades with the
#                      documented exit code and a valid pao-report/1)
#   7. Service smoke  (tests/serve_smoke.sh: boot the pao_serve daemon on a
#                      Unix socket, drive load/move/save/report through
#                      pao_client, assert normalized byte-equivalence with a
#                      fresh `pao_cli analyze`, and report_check the metrics
#                      snapshot; the serve fault points ride in leg 6 and
#                      the concurrency soak rides the TSan ctest leg)
#   8. OBS/FAULTS=OFF (zero-overhead gate: a build with instrumentation and
#                      fault injection compiled out must not reference the
#                      obs registry, tracer, or fault registry at all)
#   9. TSan           (RelWithDebInfo + -fsanitize=thread, exercising the
#                      job-graph executor paths in DrcEngine::checkAll, the
#                      oracle Steps 1-3 pipeline graph, router planning, and
#                      the pao_serve soak: >=4 concurrent clients over 2
#                      tenants against the live epoll server; plus a
#                      dedicated soak — the JobGraph suite repeated under
#                      oversubscription, the oracle graph-vs-batch
#                      equivalence at threads 1/4/0, the evaluators'
#                      thread invariance at threads 1/2/4/0, and the Step-3
#                      reference differential, pair-check count, class-
#                      fault cases, graph shape at threads 1/4/0 and the
#                      failed-pin view, ring sweep and serve-report gate,
#                      repeated)
#  10. UBSan          (-fsanitize=undefined with all diagnostics fatal)
#  11. UBSan fuzz     (pao_fuzz: >=10k seeded mutation iterations over the
#                      LEF/DEF parsers, the streamed/reference differential,
#                      and the cache reader, zero findings)
# The whole tree builds with -Wall -Wextra -Werror in every leg.
# Usage: tools/ci.sh [source-dir]   (defaults to the script's parent repo)
set -eu

SRC=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
JOBS=$(nproc 2>/dev/null || echo 2)

echo "== Release build =="
cmake -B "$SRC/build-ci-release" -S "$SRC" -DCMAKE_BUILD_TYPE=Release
cmake --build "$SRC/build-ci-release" -j "$JOBS"
ctest --test-dir "$SRC/build-ci-release" --output-on-failure -j "$JOBS"

echo "== Stream fuzz (Release) =="
# The chunked DEF parser against the frozen single-pass reference parser on
# mutated inputs, optimizer on: 3x20000 stream cases, reproducible by
# re-running pao_fuzz with the printed seed.
for fuzzseed in 201 202 203; do
  "$SRC/build-ci-release/tools/pao_fuzz" stream "$SRC/tests/fuzz_corpus" \
    20000 "$fuzzseed"
done

echo "== Benchmark driver build (perfbench, compile only) =="
# perfbench/ is its own CMake project compiling ../src; the benchmark
# pipeline builds it from a clean checkout. Building it here makes a
# library API change that breaks the driver fail CI, not the benchmark run.
cmake -S "$SRC/perfbench" -B "$SRC/build-ci-perfbench"
cmake --build "$SRC/build-ci-perfbench" -j "$JOBS"

echo "== Static analysis (pao_lint) =="
# Whole-program run: per-file rules plus layering / lock-discipline /
# catalog-drift against the real DESIGN.md. No baseline — any unsuppressed
# finding fails the leg.
"$SRC/build-ci-release/tools/pao_lint" \
  --design-doc "$SRC/DESIGN.md" \
  "$SRC/src" "$SRC/tools" "$SRC/tests" "$SRC/examples" "$SRC/bench"

echo "== Static analysis (SARIF artifact) =="
# The same run rendered as SARIF 2.1.0 — the artifact CI uploaders consume —
# structurally validated by report_check (version, tool.driver.rules, and
# per-result ruleId/message/location shape).
"$SRC/build-ci-release/tools/pao_lint" \
  --design-doc "$SRC/DESIGN.md" --format sarif \
  "$SRC/src" "$SRC/tools" "$SRC/tests" "$SRC/examples" "$SRC/bench" \
  > "$SRC/build-ci-release/lint.sarif"
"$SRC/build-ci-release/tools/report_check" sarif \
  "$SRC/build-ci-release/lint.sarif"

echo "== Incremental-session smoke (bench-incremental) =="
# Session-vs-batch equivalence over random moves, plus warm-cache reuse:
# the bench exits non-zero on any chosen-pattern divergence, and the cache
# line must report nonzero hits (fresh reruns reuse the session's entries).
BI_DIR="$SRC/build-ci-release"
"$BI_DIR/tools/pao_cli" gen 0 0.01 "$BI_DIR/ci_bi"
# pao_cli prints all human-readable status to stderr (stdout is reserved for
# --report-json -), so capture both streams for the grep checks.
BI_OUT=$("$BI_DIR/tools/pao_cli" bench-incremental \
  "$BI_DIR/ci_bi.lef" "$BI_DIR/ci_bi.def" --moves 6 --threads 2 2>&1)
echo "$BI_OUT"
echo "$BI_OUT" | grep -q "equivalence      : OK"
BI_HITS=$(echo "$BI_OUT" | sed -n 's/.*entries, \([0-9][0-9]*\) hits.*/\1/p')
[ "${BI_HITS:-0}" -gt 0 ]

echo "== Observability smoke (report + trace) =="
# The analyze report must validate against pao-report/1, the trace must hold
# at least 4 distinct phase spans with parallelFor worker spans nested under
# them, and the report must be byte-identical across thread counts once
# timing-valued keys are stripped.
"$BI_DIR/tools/pao_cli" gen 0 0.01 "$BI_DIR/ci_obs"
"$BI_DIR/tools/pao_cli" analyze "$BI_DIR/ci_obs.lef" "$BI_DIR/ci_obs.def" \
  --threads 1 --report-json "$BI_DIR/ci_obs_r1.json"
"$BI_DIR/tools/pao_cli" analyze "$BI_DIR/ci_obs.lef" "$BI_DIR/ci_obs.def" \
  --threads 4 --report-json "$BI_DIR/ci_obs_r4.json" \
  --trace-out "$BI_DIR/ci_obs_t4.json"
"$BI_DIR/tools/report_check" report "$BI_DIR/ci_obs_r4.json"
"$BI_DIR/tools/report_check" trace "$BI_DIR/ci_obs_t4.json" 4 --require-worker
"$BI_DIR/tools/report_check" compare \
  "$BI_DIR/ci_obs_r1.json" "$BI_DIR/ci_obs_r4.json"

echo "== Profile smoke (job-graph profiler) =="
# The mixed preset at --threads 4 must emit a schema-valid pao-report/2
# profile section whose critical path fits under the measured wall time and
# whose parallelism headroom exceeds 1 (the acceptance bar for the
# profiler: a multi-worker run on a fan-out-rich graph is never fully
# serial).
"$BI_DIR/tools/pao_cli" gen mixed 0.04 "$BI_DIR/ci_prof"
"$BI_DIR/tools/pao_cli" analyze "$BI_DIR/ci_prof.lef" "$BI_DIR/ci_prof.def" \
  --threads 4 --profile-out "$BI_DIR/ci_prof_p.json"
"$BI_DIR/tools/report_check" profile "$BI_DIR/ci_prof_p.json"
# report_check prints its human summary on stderr (stdout stays empty).
PROF_HEADROOM=$("$BI_DIR/tools/report_check" profile "$BI_DIR/ci_prof_p.json" \
  2>&1 | sed -n 's/^ *headroom *: *\([0-9.][0-9.]*\).*/\1/p')
echo "profile headroom: ${PROF_HEADROOM:-missing}"
awk "BEGIN { exit !(${PROF_HEADROOM:-0} > 1.0) }"

echo "== Scale smoke (streaming ingest) =="
# ROADMAP item 3 acceptance path at CI-friendly size: stream-generate a
# huge-preset design, ingest it with the chunked parallel parser, validate
# the report's ingest section (throughput and peak RSS must be recorded),
# and run the scale bench's self-checks (streamed==legacy fingerprint,
# shard-count invariance, nonzero throughput). PAO_CI_SCALE=1 reproduces
# the full ~1.5M-instance acceptance run.
SCALE=${PAO_CI_SCALE:-0.02}
"$BI_DIR/tools/pao_cli" gen h "$SCALE" "$BI_DIR/ci_scale"
"$BI_DIR/tools/pao_cli" analyze "$BI_DIR/ci_scale.lef" "$BI_DIR/ci_scale.def" \
  --stream --threads 4 --report-json "$BI_DIR/ci_scale_r.json"
"$BI_DIR/tools/report_check" ingest "$BI_DIR/ci_scale_r.json"
env PAO_BENCH_REPORT_DIR="$BI_DIR" PAO_SCALE="$SCALE" \
  "$BI_DIR/bench/bench_scale"
"$BI_DIR/tools/report_check" ingest "$BI_DIR/BENCH_scale.json"

echo "== Fault-injection matrix =="
# Every cataloged fault point, injected one at a time via PAO_FAULTS, must
# either fully recover or degrade gracefully with the documented exit code
# and a schema-valid report — never abort. fault_matrix.sh is also a ctest
# entry; this leg runs it against the Release build explicitly.
sh "$SRC/tests/fault_matrix.sh" "$BI_DIR/tools/pao_cli" \
  "$BI_DIR/tools/report_check" "$BI_DIR/ci_fault_matrix" \
  "$BI_DIR/tools/pao_serve" "$BI_DIR/tools/pao_client"

echo "== Service smoke (pao_serve) =="
# Boot the long-lived daemon on a Unix socket, mutate a tenant through
# pao_client, and assert the service-level equivalence contract: the
# daemon's report matches a fresh `pao_cli analyze` of the saved design
# byte-for-byte after normalization (modulo producer-specific sections).
sh "$SRC/tests/serve_smoke.sh" "$BI_DIR/tools/pao_cli" \
  "$BI_DIR/tools/pao_serve" "$BI_DIR/tools/pao_client" \
  "$BI_DIR/tools/report_check" "$BI_DIR/ci_serve_smoke"

echo "== PAO_OBS=OFF / PAO_FAULTS=OFF zero-overhead build =="
# With instrumentation and fault injection compiled out, the hot libraries
# must carry no reference to the metrics registry, tracer, or fault
# registry: the macros expand to nothing, so any surviving symbol means a
# stray direct call crept in. The tools must build in this configuration
# too, and so must bench_pipeline, whose profile-based overlap check is
# compiled out there; pao_tests stays out, as tests/test_obs.cpp asserts
# an instrumented build.
OFF_DIR="$SRC/build-ci-obsoff"
cmake -B "$OFF_DIR" -S "$SRC" -DCMAKE_BUILD_TYPE=Release -DPAO_OBS=OFF \
  -DPAO_FAULTS=OFF
cmake --build "$OFF_DIR" -j "$JOBS" \
  --target pao_util pao_drc pao_core pao_router pao_lefdef \
  pao_cli pao_serve pao_client report_check pao_fuzz bench_pipeline
for lib in pao_util pao_drc pao_core pao_router pao_lefdef; do
  archive=$(find "$OFF_DIR/src" -name "lib${lib}.a" | head -n 1)
  [ -n "$archive" ]
  if nm -C "$archive" | grep -E \
      'pao::obs::(Registry|Tracer|analyzeProfile|profileSectionJson|recordProfileTrace|GraphProfile)' \
      >/dev/null; then
    echo "FAIL: $lib references obs registry/tracer/profiler with PAO_OBS=OFF"
    exit 1
  fi
  if nm -C "$archive" | grep -E ' U .*FaultRegistry' >/dev/null; then
    echo "FAIL: $lib references util::FaultRegistry with PAO_FAULTS=OFF"
    exit 1
  fi
  echo "$lib: no obs/fault registry references"
done

echo "== ThreadSanitizer build =="
cmake -B "$SRC/build-ci-tsan" -S "$SRC" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPAO_SANITIZE=thread
cmake --build "$SRC/build-ci-tsan" -j "$JOBS"
# TSan slows execution ~5-15x; keep -j so independent tests overlap.
ctest --test-dir "$SRC/build-ci-tsan" --output-on-failure -j "$JOBS"

echo "== ThreadSanitizer job-graph soak =="
# The scheduler races that matter (steal vs. owner pop, ready-count
# decrement vs. wakeup, dependent-push vs. drain) need many graph
# lifecycles to surface, not one pass: repeat the whole JobGraph suite —
# ManySmallGraphsUnderOversubscription runs 8 workers on whatever cores
# the CI box has — and then pin the end-to-end contract: the oracle's
# single pipeline graph must match the fresh batch run at threads 1/4/0,
# and at threads 1/2/4/0 the chunked failed-pin evaluation must match the
# serial reference and the per-class dirty-AP count its 1-thread result.
"$SRC/build-ci-tsan/tests/pao_tests" \
  --gtest_filter='JobGraph.*' --gtest_repeat=20 --gtest_brief=1
"$SRC/build-ci-tsan/tests/pao_tests" --gtest_brief=1 \
  --gtest_filter='OracleFixture.ThreadCountDoesNotChangeResult:Threads/SessionEquivalence.*:Presets/EvalDifferential.StatsDoNotDependOnThreadCount/*:EvalThreads.*'
# Step-3 verdict slots are filled by whichever DP reaches them first: repeat
# the graph lifecycles so the first-touch race gets many chances to show.
# The class-fault cases (keep-going, strict, single class at threads 1/4/0)
# and the one-node-per-class graph shape ride along: class nodes commit
# their fallbacks and stats under the session's lock from any worker. So do
# the failed-pin view tests: every evaluation worker reads the one
# placed-instance view (and the session's row index) at once. The ring
# walker's differentials (1-8 and 9-64 rects) and its ring-order property
# ride along too: every via-check worker writes its coverage bitmap and
# boundary rings into its own thread's arena. The unique-instance index
# builds its classes on a job graph of instance shards. Every class and
# cluster node writes its CPU time and tally into its own slot, merged
# after the join: the session-timing case and Step3PairChecks cover both.
# The session's report reads its classes and patterns in place from every
# evaluation worker: the SessionReport cases run it at 4 threads, and
# SessionContext re-checks on the context the session kept and updated.
# Each evaluation worker gathers its own PinWindow: the window
# differentials are in Presets/EvalDifferential and FailedPinView.
# Step-3 verdict entries are probed on first demand and published by
# compare-and-swap, so DPs race to probe one entry first: the ClusterFixture
# cases run the bounded DP, four workers at once on one abutment key.
"$SRC/build-ci-tsan/tests/pao_tests" --gtest_brief=1 --gtest_repeat=5 \
  --gtest_filter='Presets/Step3Differential.*:Step3PairChecks.*:ClusterFixture.*:SessionTimings.*:OracleFaultTest.ClassFault*:OracleFaultTest.SingleClassFault*:OracleSession.BuildGraphHasOneNodePerClassAndCluster:FailedPinView.*:UnionBoundaryDifferential.*:Presets/EvalDifferential.*:SessionGate.ServeEditShapeStaysLocal:ShardedUnique.*:UniqueInstanceIndex.*:SessionReport.*:SessionContext.*'

echo "== UndefinedBehaviorSanitizer build =="
cmake -B "$SRC/build-ci-ubsan" -S "$SRC" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPAO_SANITIZE=undefined
cmake --build "$SRC/build-ci-ubsan" -j "$JOBS"
ctest --test-dir "$SRC/build-ci-ubsan" --output-on-failure -j "$JOBS"

echo "== UBSan fuzz sweep =="
# Deterministic mutation fuzzing of the LEF/DEF parsers and the cache
# reader under -fsanitize=undefined: 3x4000 = 12000 seeded iterations,
# reproducible by re-running pao_fuzz with the printed seed.
for fuzzseed in 101 102 103; do
  "$SRC/build-ci-ubsan/tools/pao_fuzz" all "$SRC/tests/fuzz_corpus" \
    4000 "$fuzzseed"
done

echo "== CI OK =="
