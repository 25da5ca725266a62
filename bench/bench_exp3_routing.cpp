// Experiment 3 reproduction: detailed routing of the ispd18_test5 analogue
// with three pin-access sources, comparing final-layout DRCs — the
// TritonRoute-with-PAAF vs Dr. CU 2.0 comparison of the paper (755 DRCs vs
// 2 on the real testbench). Our stand-ins:
//   TrRte  = legacy first-point access (v0.0.6.0 style),
//   Dr.CU  = greedy per-pin nearest access, no pattern compatibility,
//   PAAF   = cluster-selected access patterns.
// Reported: unconnected pins (no usable access), access-related DRCs (the
// paper's pin-access signal) and total DRCs.
#include <cstdio>

#include "bench_common.hpp"
#include "benchgen/testcase.hpp"
#include "pao/evaluate.hpp"
#include "router/router.hpp"

namespace {

void runTestcase(const pao::benchgen::TestcaseSpec& spec, double scale,
                 int ripupPasses, pao::obs::Json& outRows) {
  using namespace pao;
  const benchgen::Testcase tc = benchgen::generate(spec, scale);
  std::printf("\n%s (scale %.3g, %zu insts, %zu nets)\n", spec.name.c_str(),
              scale, tc.design->instances.size(), tc.design->nets.size());
  std::printf("%-8s | %7s %7s %9s %8s | %10s %9s %9s\n", "Access", "routed",
              "failed", "unconnPin", "relaxed", "accessDRC", "totalDRC",
              "time(s)");
  bench::printRule(88);

  struct ModeRow {
    const char* name;
    router::AccessMode mode;
  };
  const ModeRow rows[] = {
      {"TrRte", router::AccessMode::kFirstAp},
      {"Dr.CU*", router::AccessMode::kGreedyNearest},
      {"PAAF", router::AccessMode::kPattern},
  };
  for (const ModeRow& row : rows) {
    const core::OracleConfig cfg = row.mode == router::AccessMode::kFirstAp
                                       ? core::legacyConfig()
                                       : core::withBcaConfig();
    core::PinAccessOracle oracle(*tc.design, cfg);
    const core::OracleResult res = oracle.run();
    router::AccessSource access(*tc.design, res.view(), row.mode);
    router::RouterConfig rc;
    rc.ripupPasses = ripupPasses;
    router::DetailedRouter rtr(*tc.design, access, rc);
    const router::RouteResult rr = rtr.run();
    std::printf("%-8s | %7zu %7zu %9zu %8zu | %10zu %9zu %9.2f\n", row.name,
                rr.stats.routedNets, rr.stats.failedNets,
                rr.stats.skippedTerms, rr.stats.relaxedRetries,
                rr.accessViolations, rr.violations.size(),
                rr.stats.seconds);
    std::fflush(stdout);
    outRows.push(obs::Json::object()
                  .set("benchmark", obs::Json(spec.name))
                  .set("access", obs::Json(row.name))
                  .set("routedNets", obs::Json(rr.stats.routedNets))
                  .set("failedNets", obs::Json(rr.stats.failedNets))
                  .set("unconnectedPins", obs::Json(rr.stats.skippedTerms))
                  .set("relaxedRetries", obs::Json(rr.stats.relaxedRetries))
                  .set("accessDrcs", obs::Json(rr.accessViolations))
                  .set("totalDrcs", obs::Json(rr.violations.size()))
                  .set("seconds", obs::Json(rr.stats.seconds)));
  }
}

}  // namespace

int main() {
  using namespace pao;
  const double scale = bench::benchScale(0.01);
  bench::BenchReport report("bench_exp3_routing");
  obs::Json rows = obs::Json::array();
  std::printf("Experiment 3 — final routed design quality by pin-access "
              "source\n");
  // test1 (45nm, routing-friendly): the access-quality signal is clean.
  runTestcase(benchgen::ispd18Suite()[0], 2 * scale, /*ripupPasses=*/5, rows);
  // test5 (32nm, the paper's showcase): denser; relaxed retries during
  // rip-up dominate runtime there, so fewer passes keep the suite fast.
  runTestcase(benchgen::ispd18Suite()[4], scale, /*ripupPasses=*/2, rows);
  std::printf("\n(*) greedy nearest-point proxy for the pattern-oblivious "
              "comparison router.\nPaper shape check: PAAF connects every "
              "pin (TrRte cannot) and has the fewest\naccess-related DRCs; "
              "pattern-oblivious access leaves unconnected pins and/or\n"
              "more access DRCs.\n");
  report.bench().set("rows", std::move(rows));
  return report.write() ? 0 : 1;
}
