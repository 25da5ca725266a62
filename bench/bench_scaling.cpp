// Thread-scaling bench for the oracle and the failed-pin evaluation
// (ROADMAP items 1 and 3): builds the huge preset in memory at PAO_SCALE
// (default 0.05, ~75k instances), then times the BCA oracle run (the
// session build PinAccessOracle::run wraps) and countFailedPins on its
// result, each at 1 and at 4 worker threads, best of 3 each.
// BENCH_scaling.json records the pin count, the best wall times and the
// speedups.
//
// Self-check (exit 1 on failure):
//   * the 4-thread oracle chooses the same patterns and runs the same
//     number of Step-3 pair checks as the 1-thread one;
//   * the 4-thread failed-pin stats equal the 1-thread stats: counts and
//     every detail, violations included;
//   * at 4 threads the oracle is at least kMinOracleSpeedup and the
//     evaluation at least kMinSpeedup times faster than at 1 thread.
// The speedup gates are skipped, with the reason logged, on hosts with fewer
// than 4 hardware threads and in sanitizer builds, whose instrumentation
// does not scale like the plain code. The equality checks always run.
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
#include "pao/session.hpp"

using namespace pao;

namespace {

constexpr double kMinSpeedup = 1.6;
constexpr double kMinOracleSpeedup = 2.0;
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

struct OracleRun {
  double seconds = std::numeric_limits<double>::infinity();
  core::OracleResult result;
  std::size_t pairChecks = 0;
};

/// Best wall time of kReps BCA oracle runs at `threads` workers, with the
/// last run's result and Step-3 pair-check count.
OracleRun bestOracle(const db::Design& design, int threads) {
  core::OracleConfig cfg = core::withBcaConfig();
  cfg.numThreads = threads;
  OracleRun out;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const core::OracleSession session(design, cfg);
    out.result = session.snapshot();
    out.seconds = std::min(out.seconds, std::chrono::duration<double>(
                                            std::chrono::steady_clock::now() -
                                            t0)
                                            .count());
    out.pairChecks = session.stats().pairChecks;
  }
  return out;
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

  OracleRun oracleSerial = bestOracle(design, 1);
  const OracleRun oracleParallel = bestOracle(design, kGateThreads);
  const double oracleSpeedup = oracleParallel.seconds > 0
                                   ? oracleSerial.seconds /
                                         oracleParallel.seconds
                                   : 0;
  core::OracleResult& result = oracleSerial.result;

  core::FailedPinStats serial;
  core::FailedPinStats parallel;
  const double serialSeconds = bestSeconds(design, result, 1, serial);
  const double parallelSeconds =
      bestSeconds(design, result, kGateThreads, parallel);
  const double speedup =
      parallelSeconds > 0 ? serialSeconds / parallelSeconds : 0;
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("oracle and countFailedPins scaling on %s (scale %.3g)\n",
              spec.name.c_str(), scale);
  std::printf("%-34s | %12s\n", "quantity", "value");
  bench::printRule(50);
  std::printf("%-34s | %12zu\n", "instances", design.instances.size());
  std::printf("%-34s | %12zu\n", "net-attached pins", serial.totalPins);
  std::printf("%-34s | %12zu\n", "failed pins", serial.failedPins);
  std::printf("%-34s | %12zu\n", "step-3 pair checks",
              oracleSerial.pairChecks);
  std::printf("%-34s | %12u\n", "hardware threads", hw);
  std::printf("%-34s | %12.3f\n", "oracle best seconds, 1 thread",
              oracleSerial.seconds);
  std::printf("%-34s | %12.3f\n", "oracle best seconds, 4 threads",
              oracleParallel.seconds);
  std::printf("%-34s | %12.2f\n", "oracle speedup", oracleSpeedup);
  std::printf("%-34s | %12.3f\n", "eval best seconds, 1 thread",
              serialSeconds);
  std::printf("%-34s | %12.3f\n", "eval best seconds, 4 threads",
              parallelSeconds);
  std::printf("%-34s | %12.2f\n", "eval speedup", speedup);
  std::fflush(stdout);

  report.bench()
      .set("instances", obs::Json(design.instances.size()))
      .set("pins", obs::Json(serial.totalPins))
      .set("failedPins", obs::Json(serial.failedPins))
      .set("pairChecks", obs::Json(oracleSerial.pairChecks))
      .set("hardwareThreads", obs::Json(static_cast<long long>(hw)))
      .set("oracleSerialSeconds", obs::Json(oracleSerial.seconds))
      .set("oracleParallelSeconds", obs::Json(oracleParallel.seconds))
      .set("oracleSpeedup", obs::Json(oracleSpeedup))
      .set("serialSeconds", obs::Json(serialSeconds))
      .set("parallelSeconds", obs::Json(parallelSeconds))
      .set("speedup", obs::Json(speedup));
  report.write();

  bool ok = true;
  if (oracleParallel.result.chosenPattern != result.chosenPattern ||
      oracleParallel.pairChecks != oracleSerial.pairChecks) {
    std::fprintf(stderr,
                 "selfcheck FAILED: the oracle at %d threads differs from 1 "
                 "thread\n",
                 kGateThreads);
    ok = false;
  }
  if (!sameStats(serial, parallel)) {
    std::fprintf(stderr,
                 "selfcheck FAILED: countFailedPins at %d threads differs "
                 "from 1 thread\n",
                 kGateThreads);
    ok = false;
  }
  if (hw < static_cast<unsigned>(kGateThreads)) {
    std::fprintf(stderr,
                 "selfcheck: speedup gates skipped: %u hardware thread(s), "
                 "need %d\n",
                 hw, kGateThreads);
  } else if (kSanitized) {
    std::fprintf(stderr,
                 "selfcheck: speedup gates skipped: sanitizer build\n");
  } else {
    const auto gate = [&](const char* what, double got, double need) {
      if (got >= need) return;
      std::fprintf(stderr,
                   "selfcheck FAILED: %s speedup %.2fx at %d threads, need "
                   "%.2fx\n",
                   what, got, kGateThreads, need);
      ok = false;
    };
    gate("oracle", oracleSpeedup, kMinOracleSpeedup);
    gate("countFailedPins", speedup, kMinSpeedup);
  }
  if (ok) std::fprintf(stderr, "selfcheck OK\n");
  return ok ? 0 : 1;
}
