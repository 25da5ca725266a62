// Pipeline-shape bench for the job-graph oracle (ROADMAP item 2): runs the
// mixed preset through OracleSession and reports
//   - the graph shape: node count, Step-3 DP nodes that started while
//     Steps 1-2 work was still pending (pipeline overlap), steal count,
//   - the heap allocation count of one serial analyze, with the scratch
//     arena carrying the per-class and per-cluster scratch,
//   - the DRC via check's cost in heap allocations per DrcEngine::checkVia
//     call, over every chosen via of the failed-pin evaluation,
//   - the failed-pin evaluation context's build cost in heap allocations
//     per context shape.
//
// Self-check (exit 1 on failure): the overlap must be nonzero — the DFS
// schedule starts a ready cluster before unrelated classes finish, even
// serially — the serial analyze must stay within kMaxOracleHeapAllocs
// heap allocations, checkVia within kMaxAllocsPerCheckVia per call, and
// the context build within kMaxAllocsPerContextShape per shape.
//
// The binary overrides global operator new/delete to count allocations;
// keep it leaf (no other benches link this TU).
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_common.hpp"
#include "benchgen/testcase.hpp"
#include "pao/evaluate.hpp"
#include "pao/session.hpp"
#include "util/arena.hpp"

namespace {
std::atomic<std::uint64_t> gHeapAllocs{0};
}  // namespace

void* operator new(std::size_t n) {
  gHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t n, std::align_val_t align) {
  gHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (n + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded ? rounded : a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) { return operator new(n); }
void* operator new[](std::size_t n, std::align_val_t align) {
  return operator new(n, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace pao;

namespace {

struct RunMeasure {
  core::OracleSession::Stats stats;
  std::uint64_t heapAllocs = 0;
  std::uint64_t arenaBytes = 0;
#if PAO_OBS_ENABLED
  pao::obs::GraphProfile profile;
#endif
};

// Ceiling of the serial-analyze self-check: 57,761 heap allocations
// measured on the mixed preset at scale 0.02, plus 9.9%. With the arena's
// scratch routed to the heap the same analyze took 342,408.
constexpr std::uint64_t kMaxOracleHeapAllocs = 63500;

// Ceiling of the checkVia self-check: 4.00 allocations per call measured
// on the mixed preset at scale 0.02 (the boundary rings of both
// enclosures), plus 25%. With a boundary extraction per rule and a
// RegionQuery per call for the EOL context it was 36.2.
constexpr double kMaxAllocsPerCheckVia = 5.0;

// Ceiling of the context-build self-check: 25% of the 1.96 heap
// allocations per shape (1103 for 563 shapes) that one FailedPinContext
// build took on the mixed preset at scale 0.02 when every GridIndex bin was
// a hash-map entry holding its own vector and each shape was stored twice.
// The exact-size bulk fill measured 0.071 (40 allocations).
constexpr double kMaxAllocsPerContextShape = 0.49;

RunMeasure analyzeOnce(const db::Design& design, int threads) {
  core::OracleConfig cfg;
  cfg.numThreads = threads;
  const std::uint64_t allocs0 = gHeapAllocs.load(std::memory_order_relaxed);
  // Serial runs execute on this thread, so its arena sees every bump.
  const std::uint64_t bytes0 = util::scratchArena().bytesRequested();
  core::OracleSession session(design, cfg);
  RunMeasure m;
  m.stats = session.stats();
  m.heapAllocs = gHeapAllocs.load(std::memory_order_relaxed) - allocs0;
  m.arenaBytes = util::scratchArena().bytesRequested() - bytes0;
#if PAO_OBS_ENABLED
  m.profile = session.lastGraphProfile();
#endif
  return m;
}

struct ViaCheckMeasure {
  std::uint64_t calls = 0;
  std::uint64_t heapAllocs = 0;
  double perCall() const {
    return calls > 0 ? static_cast<double>(heapAllocs) /
                           static_cast<double>(calls)
                     : 0.0;
  }
};

/// Heap allocations of checkVia over the failed-pin evaluation: every
/// chosen via, checked beside its neighbours' vias as countFailedPins does,
/// with only the checkVia call inside the counting window.
ViaCheckMeasure measureCheckVia(const db::Design& design) {
  core::OracleConfig cfg;
  cfg.numThreads = 1;
  const core::OracleResult result =
      core::OracleSession(design, cfg).snapshot();
  const core::FailedPinContext ctx(design, result);
  std::vector<drc::Shape> extra;
  ViaCheckMeasure m;
  for (int v = 0; v < static_cast<int>(ctx.placed().size()); ++v) {
    const core::FailedPinContext::PlacedVia& pv = ctx.placed()[v];
    extra.clear();
    ctx.neighbourShapes(v, extra);
    const std::uint64_t allocs0 = gHeapAllocs.load(std::memory_order_relaxed);
    // The returned vector is part of the call's cost; it dies after the
    // window closes.
    const std::vector<drc::Violation> violations =
        ctx.engine().checkVia(*pv.via, pv.loc, pv.net, extra);
    m.heapAllocs += gHeapAllocs.load(std::memory_order_relaxed) - allocs0;
    ++m.calls;
  }
  return m;
}

struct ContextMeasure {
  std::uint64_t shapes = 0;
  std::uint64_t heapAllocs = 0;
  double perShape() const {
    return shapes > 0 ? static_cast<double>(heapAllocs) /
                            static_cast<double>(shapes)
                      : 0.0;
  }
};

/// Heap allocations of one FailedPinContext build, per fixed context shape.
ContextMeasure measureContextBuild(const db::Design& design) {
  core::OracleConfig cfg;
  cfg.numThreads = 1;
  const core::OracleResult result =
      core::OracleSession(design, cfg).snapshot();
  const std::uint64_t allocs0 = gHeapAllocs.load(std::memory_order_relaxed);
  const core::FailedPinContext ctx(design, result);
  ContextMeasure m;
  m.heapAllocs = gHeapAllocs.load(std::memory_order_relaxed) - allocs0;
  m.shapes = ctx.engine().region().size();
  return m;
}

}  // namespace

int main() {
  const double scale = bench::benchScale(0.02);
  bench::BenchReport report("bench_pipeline");
  const benchgen::Testcase tc = benchgen::generate(benchgen::mixedSpec(),
                                                   scale);
  std::printf("Pipeline shape on %s (scale %.3g, %zu insts)\n",
              tc.spec.name.c_str(), scale, tc.design->instances.size());

  // Serial run: the overlap count is deterministic at one worker (the DFS
  // schedule is fixed), which is what the self-check keys on.
  const RunMeasure serialRun = analyzeOnce(*tc.design, /*threads=*/1);
  // Full-pool run, only for the steal counter (schedule-dependent).
  const RunMeasure pooled = analyzeOnce(*tc.design, /*threads=*/0);

  const ViaCheckMeasure viaCheck = measureCheckVia(*tc.design);
  const ContextMeasure context = measureContextBuild(*tc.design);

  const std::size_t clusterJobs = serialRun.stats.lastClusterCount;
  const double overlapFraction =
      clusterJobs > 0 ? static_cast<double>(serialRun.stats.overlapJobs) /
                            static_cast<double>(clusterJobs)
                      : 0.0;

  std::printf("%-34s | %10s\n", "quantity", "value");
  bench::printRule(50);
  std::printf("%-34s | %10zu\n", "graph jobs", serialRun.stats.graphJobs);
  std::printf("%-34s | %10zu\n", "cluster DP jobs", clusterJobs);
  std::printf("%-34s | %10zu\n", "overlap jobs (serial DFS)",
              serialRun.stats.overlapJobs);
  std::printf("%-34s | %10.3f\n", "overlap fraction", overlapFraction);
  std::printf("%-34s | %10zu\n", "steals (threads=0 run)",
              static_cast<std::size_t>(pooled.stats.graphSteals));
  std::printf("%-34s | %10llu\n", "arena bytes requested",
              static_cast<unsigned long long>(serialRun.arenaBytes));
  std::printf("%-34s | %10llu\n", "heap allocs (serial analyze)",
              static_cast<unsigned long long>(serialRun.heapAllocs));
  std::printf("%-34s | %10llu\n", "checkVia calls (evaluation)",
              static_cast<unsigned long long>(viaCheck.calls));
  std::printf("%-34s | %10.2f\n", "heap allocs per checkVia",
              viaCheck.perCall());
  std::printf("%-34s | %10llu\n", "failed-pin context shapes",
              static_cast<unsigned long long>(context.shapes));
  std::printf("%-34s | %10.3f\n", "heap allocs per context shape",
              context.perShape());
  std::fflush(stdout);

  report.bench()
      .set("instances", obs::Json(tc.design->instances.size()))
      .set("graphJobs", obs::Json(serialRun.stats.graphJobs))
      .set("clusterJobs", obs::Json(clusterJobs))
      .set("overlapJobs", obs::Json(serialRun.stats.overlapJobs))
      .set("overlapFraction", obs::Json(overlapFraction))
      .set("steals", obs::Json(pooled.stats.graphSteals))
      .set("pairChecks", obs::Json(serialRun.stats.pairChecks))
      .set("arenaBytes", obs::Json(static_cast<double>(serialRun.arenaBytes)))
      .set("heapAllocsArena", obs::Json(static_cast<double>(serialRun.heapAllocs)))
      .set("checkViaCalls", obs::Json(static_cast<double>(viaCheck.calls)))
      .set("heapAllocsPerCheckVia", obs::Json(viaCheck.perCall()))
      .set("contextShapes", obs::Json(static_cast<double>(context.shapes)))
      .set("heapAllocsPerContextShape", obs::Json(context.perShape()));
#if PAO_OBS_ENABLED
  // Profile of the full-pool run, so BENCH_bench_pipeline.json carries the
  // measured critical path and parallelism headroom next to the shape rows.
  report.attachProfile(pooled.profile);
#endif
  report.write();

  bool ok = true;
  if (serialRun.stats.overlapJobs == 0) {
    std::fprintf(stderr,
                 "selfcheck FAILED: no Step-3 job started while Steps 1-2 "
                 "work was pending\n");
    ok = false;
  }
  if (serialRun.heapAllocs > kMaxOracleHeapAllocs) {
    std::fprintf(stderr,
                 "selfcheck FAILED: %llu heap allocations in the serial "
                 "analyze (need <= %llu)\n",
                 static_cast<unsigned long long>(serialRun.heapAllocs),
                 static_cast<unsigned long long>(kMaxOracleHeapAllocs));
    ok = false;
  }
  if (viaCheck.calls == 0 || viaCheck.perCall() > kMaxAllocsPerCheckVia) {
    std::fprintf(stderr,
                 "selfcheck FAILED: %.2f heap allocations per checkVia over "
                 "%llu calls (need <= %.2f)\n",
                 viaCheck.perCall(),
                 static_cast<unsigned long long>(viaCheck.calls),
                 kMaxAllocsPerCheckVia);
    ok = false;
  }
  if (context.shapes == 0 ||
      context.perShape() > kMaxAllocsPerContextShape) {
    std::fprintf(stderr,
                 "selfcheck FAILED: %.3f heap allocations per shape over a "
                 "%llu-shape failed-pin context build (need <= %.3f)\n",
                 context.perShape(),
                 static_cast<unsigned long long>(context.shapes),
                 kMaxAllocsPerContextShape);
    ok = false;
  }
  if (ok) std::fprintf(stderr, "selfcheck OK\n");
  return ok ? 0 : 1;
}
