// Thread-scaling bench for the failed-pin evaluation (ROADMAP items 1 and
// 3): builds the huge preset in memory at PAO_SCALE (default 0.05, ~75k
// instances), runs the BCA oracle once, then times countFailedPins on the
// result at 1 and at 4 worker threads, best of 3 each. BENCH_scaling.json
// records the pin count, both best wall times and the speedup.
//
// Self-check (exit 1 on failure):
//   * the 4-thread stats equal the 1-thread stats: counts and every detail,
//     violations included;
//   * the 4-thread wall time is at least kMinSpeedup times faster than the
//     1-thread one.
// The speedup gate is skipped, with the reason logged, on hosts with fewer
// than 4 hardware threads and in sanitizer builds, whose instrumentation
// does not scale like the plain code. The equality check always runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "benchgen/huge.hpp"
#include "lefdef/stream.hpp"
#include "pao/evaluate.hpp"
#include "pao/oracle.hpp"

using namespace pao;

namespace {

constexpr double kMinSpeedup = 1.6;
constexpr int kGateThreads = 4;
constexpr int kReps = 3;

// PAO_SANITIZED is set by bench/CMakeLists.txt from -DPAO_SANITIZE.
constexpr bool kSanitized = PAO_SANITIZED;

bool sameStats(const core::FailedPinStats& a, const core::FailedPinStats& b) {
  if (a.totalPins != b.totalPins || a.failedPins != b.failedPins ||
      a.details.size() != b.details.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.details.size(); ++i) {
    if (a.details[i].instIdx != b.details[i].instIdx ||
        a.details[i].sigPinPos != b.details[i].sigPinPos ||
        a.details[i].violations != b.details[i].violations) {
      return false;
    }
  }
  return true;
}

/// Best wall time of kReps countFailedPins runs at `threads` workers; the
/// stats of the last run go to `out`.
double bestSeconds(const db::Design& design, core::OracleResult& result,
                   int threads, core::FailedPinStats& out) {
  result.numThreads = threads;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    out = core::countFailedPins(design, result,
                                std::numeric_limits<std::size_t>::max());
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

}  // namespace

int main() {
  const double scale = bench::benchScale(0.05);
  bench::BenchReport report("scaling");
  const benchgen::HugeSpec spec = benchgen::hugeSpec();
  const benchgen::HugeTechLib tl = benchgen::makeHugeTechLib(spec);
  db::Design design;
  design.tech = tl.tech.get();
  design.lib = tl.lib.get();
  {
    std::ostringstream def;
    benchgen::writeHugeDef(spec, scale, *tl.tech, *tl.lib, def);
    lefdef::parseDef(def.str(), design);
  }

  core::OracleConfig cfg = core::withBcaConfig();
  cfg.numThreads = 0;
  core::OracleResult result = core::PinAccessOracle(design, cfg).run();

  core::FailedPinStats serial;
  core::FailedPinStats parallel;
  const double serialSeconds = bestSeconds(design, result, 1, serial);
  const double parallelSeconds =
      bestSeconds(design, result, kGateThreads, parallel);
  const double speedup =
      parallelSeconds > 0 ? serialSeconds / parallelSeconds : 0;
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("countFailedPins scaling on %s (scale %.3g)\n",
              spec.name.c_str(), scale);
  std::printf("%-34s | %12s\n", "quantity", "value");
  bench::printRule(50);
  std::printf("%-34s | %12zu\n", "instances", design.instances.size());
  std::printf("%-34s | %12zu\n", "net-attached pins", serial.totalPins);
  std::printf("%-34s | %12zu\n", "failed pins", serial.failedPins);
  std::printf("%-34s | %12u\n", "hardware threads", hw);
  std::printf("%-34s | %12.3f\n", "best seconds, 1 thread", serialSeconds);
  std::printf("%-34s | %12.3f\n", "best seconds, 4 threads", parallelSeconds);
  std::printf("%-34s | %12.2f\n", "speedup", speedup);
  std::fflush(stdout);

  report.bench()
      .set("instances", obs::Json(design.instances.size()))
      .set("pins", obs::Json(serial.totalPins))
      .set("failedPins", obs::Json(serial.failedPins))
      .set("hardwareThreads", obs::Json(static_cast<long long>(hw)))
      .set("serialSeconds", obs::Json(serialSeconds))
      .set("parallelSeconds", obs::Json(parallelSeconds))
      .set("speedup", obs::Json(speedup));
  report.write();

  bool ok = true;
  if (!sameStats(serial, parallel)) {
    std::fprintf(stderr,
                 "selfcheck FAILED: countFailedPins at %d threads differs "
                 "from 1 thread\n",
                 kGateThreads);
    ok = false;
  }
  if (hw < static_cast<unsigned>(kGateThreads)) {
    std::fprintf(stderr,
                 "selfcheck: speedup gate skipped: %u hardware thread(s), "
                 "need %d\n",
                 hw, kGateThreads);
  } else if (kSanitized) {
    std::fprintf(stderr,
                 "selfcheck: speedup gate skipped: sanitizer build\n");
  } else if (speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "selfcheck FAILED: speedup %.2fx at %d threads, need "
                 "%.2fx\n",
                 speedup, kGateThreads, kMinSpeedup);
    ok = false;
  }
  if (ok) std::fprintf(stderr, "selfcheck OK\n");
  return ok ? 0 : 1;
}
