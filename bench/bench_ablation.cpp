// Ablation study over the design choices DESIGN.md calls out:
//   - k, the per-pin access point budget (Algorithm 1 early termination),
//   - alpha, the pin-ordering weight (Sec. III-B),
//   - history-aware edge cost on/off (Algorithm 3 lines 9-10),
//   - boundary-pins-only vs all-pins Step-3 checking.
// Metrics: total APs, failed pins, pattern-stage pair checks, runtime.
#include <cstdio>

#include "bench_common.hpp"
#include "benchgen/testcase.hpp"
#include "pao/evaluate.hpp"

using namespace pao;

namespace {

void runRow(const benchgen::Testcase& tc, const char* label,
            core::OracleConfig cfg, obs::Json& rows) {
  core::PinAccessOracle oracle(*tc.design, cfg);
  const core::OracleResult res = oracle.run();
  const core::DirtyApStats dirty = core::countDirtyAps(*tc.design, res);
  const core::FailedPinStats failed = core::countFailedPins(*tc.design, res);
  std::size_t validated = 0;
  std::size_t patterns = 0;
  for (const core::ClassAccess& ca : res.classes) {
    for (const core::AccessPattern& p : ca.patterns) {
      ++patterns;
      if (p.validated) ++validated;
    }
  }
  std::printf("%-24s | %8zu | %7zu | %8zu/%-8zu | %7.2f\n", label,
              dirty.totalAps, failed.failedPins, validated, patterns,
              res.wallSeconds);
  std::fflush(stdout);
  rows.push(obs::Json::object()
                .set("configuration", obs::Json(label))
                .set("totalAps", obs::Json(dirty.totalAps))
                .set("failedPins", obs::Json(failed.failedPins))
                .set("validatedPatterns", obs::Json(validated))
                .set("patterns", obs::Json(patterns))
                .set("wallSeconds", obs::Json(res.wallSeconds)));
}

}  // namespace

int main() {
  const double scale = bench::benchScale(0.02);
  bench::BenchReport report("bench_ablation");
  obs::Json rows = obs::Json::array();
  const benchgen::Testcase tc =
      benchgen::generate(benchgen::ispd18Suite()[4], scale);  // test5 (32nm)
  std::printf("Ablations on %s (scale %.3g, %zu insts)\n",
              tc.spec.name.c_str(), scale, tc.design->instances.size());
  std::printf("%-24s | %8s | %7s | %17s | %7s\n", "configuration",
              "#APs", "#failed", "validated/patterns", "wall(s)");
  bench::printRule(80);

  for (const int k : {1, 2, 3, 5, 10}) {
    core::OracleConfig cfg = core::withBcaConfig();
    cfg.apGen.k = k;
    char label[64];
    std::snprintf(label, sizeof(label), "k = %d", k);
    runRow(tc, label, cfg, rows);
  }
  bench::printRule(80);

  for (const double alpha : {0.0, 0.3, 1.0}) {
    core::OracleConfig cfg = core::withBcaConfig();
    cfg.patternGen.alpha = alpha;
    char label[64];
    std::snprintf(label, sizeof(label), "alpha = %.1f", alpha);
    runRow(tc, label, cfg, rows);
  }
  bench::printRule(80);

  {
    core::OracleConfig cfg = core::withBcaConfig();
    cfg.patternGen.historyAware = false;
    runRow(tc, "history-aware OFF", cfg, rows);
    cfg.patternGen.historyAware = true;
    runRow(tc, "history-aware ON", cfg, rows);
  }
  bench::printRule(80);

  {
    core::OracleConfig cfg = core::withBcaConfig();
    cfg.clusterSelect.boundaryPinsOnly = false;
    runRow(tc, "step3: all pin pairs", cfg, rows);
    cfg.clusterSelect.boundaryPinsOnly = true;
    runRow(tc, "step3: boundary only", cfg, rows);
  }
  report.bench().set("rows", std::move(rows));
  return report.write() ? 0 : 1;
}
