// Pipeline-shape bench for the job-graph oracle (ROADMAP item 2): runs the
// mixed preset through OracleSession and reports
//   - the graph shape: node count, and from the job-graph profile the
//     Step-3 DP nodes that began before the last class node (pipeline
//     overlap) and the steal count,
//   - the heap allocation count of one serial analyze, with the scratch
//     arena carrying the per-class and per-cluster scratch,
//   - the DRC via check's cost in heap allocations per DrcEngine::checkVia
//     call, over every chosen via of the failed-pin evaluation, through its
//     per-pin view and through a reused FailedPinContext::PinWindow,
//   - the windowed check's time over the per-pin view's on one context,
//   - the failed-pin evaluation's memory: the peak live heap bytes above
//     the starting level during one 1-thread countFailedPins, per instance,
//   - the via check's boundary kernel: geom::unionBoundary's time on a pin
//     bar plus a via enclosure over it (BM_UnionBoundary/2), as a ratio to
//     the frozen map-based reference::unionBoundary in this process.
//
// Self-check (exit 1 on failure): the overlap must be nonzero — the DFS
// schedule starts a ready cluster before unrelated classes finish, even
// serially; a build without PAO_OBS has no profile and skips this one —
// the serial analyze must stay within kMaxOracleHeapAllocs
// heap allocations, checkVia within kMaxAllocsPerCheckVia per call, the
// evaluation within kMaxEvalPeakBytesPerInst, and the boundary kernel
// within kMaxBoundaryTimeRatio of the reference. The windowed check must
// stay within kMaxAllocsPerCheckVia per call, gather included, and within
// kMaxWindowTimeRatio of the per-pin view's time. The time gates and the
// windowed allocation gate are skipped in sanitizer builds, whose
// instrumentation skews the two sides unevenly and allocates on its own.
//
// The binary overrides global operator new/delete to count allocations and
// track live bytes (malloc_usable_size); keep it leaf (no other benches link
// this TU).
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_common.hpp"
#include "benchgen/testcase.hpp"
#include "geom/polygon.hpp"
#include "pao/evaluate.hpp"
#include "pao/session.hpp"
#include "reference.hpp"
#include "util/arena.hpp"

namespace {
std::atomic<std::uint64_t> gHeapAllocs{0};
/// Bytes held by live operator-new blocks, and the highest value it has
/// reached since a measurement last reset it to the live count.
std::atomic<std::int64_t> gLiveBytes{0};
std::atomic<std::int64_t> gPeakBytes{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  gHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      gLiveBytes.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = gPeakBytes.load(std::memory_order_relaxed);
  while (live > peak && !gPeakBytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  gLiveBytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                       std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted(std::malloc(n ? n : 1)); }

void* operator new(std::size_t n, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (n + a - 1) / a * a;
  return counted(std::aligned_alloc(a, rounded ? rounded : a));
}

void* operator new[](std::size_t n) { return operator new(n); }
void* operator new[](std::size_t n, std::align_val_t align) {
  return operator new(n, align);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

using namespace pao;

namespace {

struct RunMeasure {
  core::OracleSession::Stats stats;
  std::size_t classJobs = 0;
  std::uint64_t heapAllocs = 0;
  std::uint64_t arenaBytes = 0;
#if PAO_OBS_ENABLED
  pao::obs::GraphProfile profile;
#endif
};

// Ceiling of the serial-analyze self-check: 31,441 heap allocations
// measured on the mixed preset at scale 0.02, plus 10%. With every via
// check's boundary rings on the heap it was 57,761, and with the arena's
// scratch routed to the heap as well 342,408.
constexpr std::uint64_t kMaxOracleHeapAllocs = 34600;

// Ceiling of the checkVia self-check: 0.00 allocations per call measured
// on the mixed preset at scale 0.02 (the boundary rings live in the
// scratch arena; only a violation list would allocate), plus a margin of
// one allocation in twenty calls. With the rings of both enclosures on the
// heap it was 4.00, and with a boundary extraction per rule and a
// RegionQuery per call for the EOL context 36.2.
constexpr double kMaxAllocsPerCheckVia = 0.05;

// Ceiling of the evaluation-memory self-check: the peak live heap bytes
// above the starting level during one 1-thread countFailedPins on the mixed
// preset at scale 0.02, per instance. Measured 583.3 with the evaluation
// reading the design through a placed-instance view, plus 25%; copying
// every placed shape into a RegionQuery and every chosen via into a via
// index took 904.9.
constexpr double kMaxEvalPeakBytesPerInst = 729.0;

// Ceiling of the boundary-kernel self-check: geom::unionBoundary's best of
// kBoundaryRounds x kBoundaryCalls calls over the reference's, on one
// 2-rect input. Measured 0.27 with a slab sweep, two scanline event sorts
// and an edge stitching table, and 0.09 with the walk over a
// compressed-grid bitmap (best of 5; the reference's heap allocations go
// through this binary's counting operator new).
constexpr double kMaxBoundaryTimeRatio = 0.2;
constexpr int kBoundaryRounds = 5;
constexpr int kBoundaryCalls = 100000;

// Ceiling of the windowed-check self-check: the strict criterion's check
// of every chosen via, each through a PinWindow gathered for it, over the
// same checks through its pinView, on one context (best of
// kWindowRounds x kWindowPasses passes, interleaved). The window answers a
// check from one row walk where the per-pin view walks the rows for each
// of its 8-10 queries.
constexpr double kMaxWindowTimeRatio = 0.8;
constexpr int kWindowRounds = 5;
constexpr int kWindowPasses = 10;

// PAO_SANITIZED is set by bench/CMakeLists.txt from -DPAO_SANITIZE.
constexpr bool kSanitized = PAO_SANITIZED;

RunMeasure analyzeOnce(const db::Design& design, int threads) {
  core::OracleConfig cfg;
  cfg.numThreads = threads;
  const std::uint64_t allocs0 = gHeapAllocs.load(std::memory_order_relaxed);
  // Serial runs execute on this thread, so its arena sees every bump.
  const std::uint64_t bytes0 = util::scratchArena().bytesRequested();
  core::OracleSession session(design, cfg);
  RunMeasure m;
  m.stats = session.stats();
  m.classJobs = session.unique().classes.size();
  m.heapAllocs = gHeapAllocs.load(std::memory_order_relaxed) - allocs0;
  m.arenaBytes = util::scratchArena().bytesRequested() - bytes0;
#if PAO_OBS_ENABLED
  m.profile = session.lastGraphProfile();
#endif
  return m;
}

#if PAO_OBS_ENABLED
/// Step-3 DP nodes of a serial build that began before its last class node
/// did — serially, exactly the DP nodes that ran while Steps 1-2 work was
/// still pending. The build adds its class nodes first (ids [0,
/// classJobs)), then one node per cluster.
std::size_t overlapJobs(const RunMeasure& m) {
  const std::vector<obs::ProfileNode>& nodes = m.profile.nodes;
  std::int64_t lastClassBegin = 0;
  for (std::size_t i = 0; i < m.classJobs && i < nodes.size(); ++i) {
    lastClassBegin = std::max(lastClassBegin, nodes[i].beginNs);
  }
  std::size_t overlap = 0;
  for (std::size_t i = m.classJobs; i < nodes.size(); ++i) {
    if (nodes[i].beginNs < lastClassBegin) ++overlap;
  }
  return overlap;
}
#endif

struct ViaCheckMeasure {
  std::uint64_t calls = 0;
  std::uint64_t heapAllocs = 0;
  std::uint64_t windowedAllocs = 0;
  static double per(std::uint64_t allocs, std::uint64_t calls) {
    return calls > 0 ? static_cast<double>(allocs) /
                           static_cast<double>(calls)
                     : 0.0;
  }
  double perCall() const { return per(heapAllocs, calls); }
  double perWindowedCall() const { return per(windowedAllocs, calls); }
};

/// Heap allocations of checkVia over the failed-pin evaluation: every
/// chosen via, checked through its per-pin view (the fixed design plus its
/// neighbours' vias), with only the checkVia call inside the counting
/// window; then checked as countFailedPins does, through one PinWindow
/// reused for every via, its construction and each gather counted too.
ViaCheckMeasure measureCheckVia(const db::Design& design) {
  core::OracleConfig cfg;
  cfg.numThreads = 1;
  const core::OracleResult result =
      core::OracleSession(design, cfg).snapshot();
  const db::RowIndex rows(design);
  const core::FailedPinContext ctx(design, result.view(), rows);
  ViaCheckMeasure m;
  const auto allocs = [] {
    return gHeapAllocs.load(std::memory_order_relaxed);
  };
  for (int v = 0; v < static_cast<int>(ctx.placed().size()); ++v) {
    const core::FailedPinContext::PlacedVia& pv = ctx.placed()[v];
    const std::uint64_t allocs0 = allocs();
    // The returned vector is part of the call's cost; it dies after the
    // window closes.
    const std::vector<drc::Violation> violations =
        ctx.engine().checkVia(ctx.pinView(v), *pv.via, pv.loc, pv.net);
    m.heapAllocs += allocs() - allocs0;
    ++m.calls;
  }
  const std::uint64_t windowed0 = allocs();
  {
    core::FailedPinContext::PinWindow window(ctx);
    for (int v = 0; v < static_cast<int>(ctx.placed().size()); ++v) {
      const core::FailedPinContext::PlacedVia& pv = ctx.placed()[v];
      window.gather(v);
      const std::vector<drc::Violation> violations =
          ctx.engine().checkVia(window, *pv.via, pv.loc, pv.net);
    }
  }
  m.windowedAllocs = allocs() - windowed0;
  return m;
}

struct WindowTimeMeasure {
  double seconds = 0;          // best round, through a PinWindow
  double pinViewSeconds = 0;   // best round, through pinView
  double ratio() const {
    return pinViewSeconds > 0 ? seconds / pinViewSeconds : 0.0;
  }
};

/// Best-of-kWindowRounds time of kWindowPasses passes of the strict
/// check over every chosen via of one context, each via checked through a
/// PinWindow gathered for it (as countFailedPins does) and through its
/// pinView, rounds interleaved so host noise hits both alike.
WindowTimeMeasure measureWindowTime(const db::Design& design) {
  core::OracleConfig cfg;
  cfg.numThreads = 1;
  const core::OracleResult result =
      core::OracleSession(design, cfg).snapshot();
  const db::RowIndex rows(design);
  const core::FailedPinContext ctx(design, result.view(), rows);
  core::FailedPinContext::PinWindow window(ctx);
  const auto time = [&](bool windowed) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kWindowPasses; ++pass) {
      for (int v = 0; v < static_cast<int>(ctx.placed().size()); ++v) {
        const core::FailedPinContext::PlacedVia& pv = ctx.placed()[v];
        if (windowed) {
          window.gather(v);
          ctx.engine().checkVia(window, *pv.via, pv.loc, pv.net);
        } else {
          ctx.engine().checkVia(ctx.pinView(v), *pv.via, pv.loc, pv.net);
        }
      }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  WindowTimeMeasure m;
  for (int round = 0; round < kWindowRounds; ++round) {
    const double windowed = time(true);
    const double viewed = time(false);
    if (round == 0 || windowed < m.seconds) m.seconds = windowed;
    if (round == 0 || viewed < m.pinViewSeconds) m.pinViewSeconds = viewed;
  }
  return m;
}

struct EvalMemoryMeasure {
  std::size_t instances = 0;
  std::int64_t peakBytes = 0;
  double perInst() const {
    return instances > 0 ? static_cast<double>(peakBytes) /
                               static_cast<double>(instances)
                         : 0.0;
  }
};

/// Peak live heap bytes above the starting level during one 1-thread
/// countFailedPins.
EvalMemoryMeasure measureEvalMemory(const db::Design& design) {
  core::OracleConfig cfg;
  cfg.numThreads = 1;
  const core::OracleResult result =
      core::OracleSession(design, cfg).snapshot();
  const std::int64_t live0 = gLiveBytes.load(std::memory_order_relaxed);
  gPeakBytes.store(live0, std::memory_order_relaxed);
  core::countFailedPins(design, result);
  EvalMemoryMeasure m;
  m.instances = design.instances.size();
  m.peakBytes = gPeakBytes.load(std::memory_order_relaxed) - live0;
  return m;
}

struct BoundaryTimeMeasure {
  double seconds = 0;           // best round, production
  double referenceSeconds = 0;  // best round, frozen reference
  double ratio() const {
    return referenceSeconds > 0 ? seconds / referenceSeconds : 0.0;
  }
};

/// Best-of-kBoundaryRounds time of kBoundaryCalls unionBoundary calls, and
/// of as many reference::unionBoundary calls, rounds interleaved so host
/// noise hits both alike. The input is BM_UnionBoundary/2's: a pin bar and
/// a via enclosure over it, the most common call in checkVia.
BoundaryTimeMeasure measureBoundaryTime() {
  const geom::Rect rects[] = {{-35, 500, 105, 570}, {0, 0, 70, 1150}};
  const auto time = [](auto&& call) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kBoundaryCalls; ++i) call();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  BoundaryTimeMeasure m;
  for (int round = 0; round < kBoundaryRounds; ++round) {
    const double prod = time([&] {
      util::ArenaScope scratch(util::scratchArena());
      geom::BoundaryRings rings;
      geom::unionBoundary(rects, rings);
    });
    const double ref = time([&] {
      util::ArenaScope scratch(util::scratchArena());
      reference::unionBoundary(rects);
    });
    if (round == 0 || prod < m.seconds) m.seconds = prod;
    if (round == 0 || ref < m.referenceSeconds) m.referenceSeconds = ref;
  }
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
#if PAO_OBS_ENABLED
  // Full-pool run, for its profile and steal count (schedule-dependent).
  const RunMeasure pooled = analyzeOnce(*tc.design, /*threads=*/0);
#endif

  const ViaCheckMeasure viaCheck = measureCheckVia(*tc.design);
  const EvalMemoryMeasure evalMemory = measureEvalMemory(*tc.design);
  const BoundaryTimeMeasure boundary = measureBoundaryTime();
  const WindowTimeMeasure windowTime = measureWindowTime(*tc.design);

  const std::size_t clusterJobs = serialRun.stats.lastClusterCount;

  std::printf("%-34s | %10s\n", "quantity", "value");
  bench::printRule(50);
  std::printf("%-34s | %10zu\n", "graph jobs", serialRun.stats.graphJobs);
  std::printf("%-34s | %10zu\n", "cluster DP jobs", clusterJobs);
#if PAO_OBS_ENABLED
  const std::size_t overlap = overlapJobs(serialRun);
  const double overlapFraction =
      clusterJobs > 0 ? static_cast<double>(overlap) /
                            static_cast<double>(clusterJobs)
                      : 0.0;
  std::printf("%-34s | %10zu\n", "overlap jobs (serial DFS)", overlap);
  std::printf("%-34s | %10.3f\n", "overlap fraction", overlapFraction);
  std::printf("%-34s | %10llu\n", "steals (threads=0 run)",
              static_cast<unsigned long long>(pooled.profile.steals));
#endif
  std::printf("%-34s | %10llu\n", "arena bytes requested",
              static_cast<unsigned long long>(serialRun.arenaBytes));
  std::printf("%-34s | %10llu\n", "heap allocs (serial analyze)",
              static_cast<unsigned long long>(serialRun.heapAllocs));
  std::printf("%-34s | %10llu\n", "checkVia calls (evaluation)",
              static_cast<unsigned long long>(viaCheck.calls));
  std::printf("%-34s | %10.2f\n", "heap allocs per checkVia",
              viaCheck.perCall());
  std::printf("%-34s | %10.3f\n", "heap allocs per windowed check",
              viaCheck.perWindowedCall());
  std::printf("%-34s | %10.3f\n", "windowed / pinView check time",
              windowTime.ratio());
  std::printf("%-34s | %10lld\n", "eval peak heap bytes",
              static_cast<long long>(evalMemory.peakBytes));
  std::printf("%-34s | %10.1f\n", "eval peak heap bytes per inst",
              evalMemory.perInst());
  std::printf("%-34s | %10.1f\n", "unionBoundary ns per call",
              boundary.seconds * 1e9 / kBoundaryCalls);
  std::printf("%-34s | %10.1f\n", "reference ns per call",
              boundary.referenceSeconds * 1e9 / kBoundaryCalls);
  std::printf("%-34s | %10.3f\n", "unionBoundary / reference time",
              boundary.ratio());
  std::fflush(stdout);

  report.bench()
      .set("instances", obs::Json(tc.design->instances.size()))
      .set("graphJobs", obs::Json(serialRun.stats.graphJobs))
      .set("clusterJobs", obs::Json(clusterJobs))
      .set("pairChecks", obs::Json(serialRun.stats.pairChecks))
      .set("arenaBytes", obs::Json(static_cast<double>(serialRun.arenaBytes)))
      .set("heapAllocsArena", obs::Json(static_cast<double>(serialRun.heapAllocs)))
      .set("checkViaCalls", obs::Json(static_cast<double>(viaCheck.calls)))
      .set("heapAllocsPerCheckVia", obs::Json(viaCheck.perCall()))
      .set("heapAllocsPerWindowedCheck",
           obs::Json(viaCheck.perWindowedCall()))
      .set("windowTimeRatio", obs::Json(windowTime.ratio()))
      .set("evalPeakBytes",
           obs::Json(static_cast<double>(evalMemory.peakBytes)))
      .set("evalPeakBytesPerInst", obs::Json(evalMemory.perInst()))
      .set("boundaryTimeRatio", obs::Json(boundary.ratio()));
#if PAO_OBS_ENABLED
  report.bench()
      .set("overlapJobs", obs::Json(overlap))
      .set("overlapFraction", obs::Json(overlapFraction))
      .set("steals", obs::Json(static_cast<double>(pooled.profile.steals)));
  // Profile of the full-pool run, so BENCH_bench_pipeline.json carries the
  // measured critical path and parallelism headroom next to the shape rows.
  report.attachProfile(pooled.profile);
#endif
  report.write();

  bool ok = true;
#if PAO_OBS_ENABLED
  if (overlap == 0) {
    std::fprintf(stderr,
                 "selfcheck FAILED: no Step-3 job started while Steps 1-2 "
                 "work was pending\n");
    ok = false;
  }
#endif
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
  if (evalMemory.peakBytes <= 0 ||
      evalMemory.perInst() > kMaxEvalPeakBytesPerInst) {
    std::fprintf(stderr,
                 "selfcheck FAILED: %.1f peak heap bytes per instance in "
                 "countFailedPins (need <= %.1f)\n",
                 evalMemory.perInst(), kMaxEvalPeakBytesPerInst);
    ok = false;
  }
  if (kSanitized) {
    std::fprintf(stderr,
                 "selfcheck: boundary time, windowed allocation and window "
                 "time gates skipped: sanitizer build\n");
  } else {
    if (boundary.ratio() > kMaxBoundaryTimeRatio) {
      std::fprintf(stderr,
                   "selfcheck FAILED: unionBoundary takes %.3f of the "
                   "reference's time on 2 rects (need <= %.2f)\n",
                   boundary.ratio(), kMaxBoundaryTimeRatio);
      ok = false;
    }
    if (viaCheck.perWindowedCall() > kMaxAllocsPerCheckVia) {
      std::fprintf(stderr,
                   "selfcheck FAILED: %.3f heap allocations per windowed "
                   "check (need <= %.2f)\n",
                   viaCheck.perWindowedCall(), kMaxAllocsPerCheckVia);
      ok = false;
    }
    if (windowTime.ratio() > kMaxWindowTimeRatio) {
      std::fprintf(stderr,
                   "selfcheck FAILED: the windowed check takes %.3f of the "
                   "per-pin view's time (need <= %.2f)\n",
                   windowTime.ratio(), kMaxWindowTimeRatio);
      ok = false;
    }
  }
  if (ok) std::fprintf(stderr, "selfcheck OK\n");
  return ok ? 0 : 1;
}
