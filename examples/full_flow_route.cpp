// Full flow: generate a testcase, run PAAF, feed the selected access
// patterns to the detailed router, and count DRCs of the final layout —
// the Experiment 3 pipeline as a library user would drive it.
#include <cstdio>
#include <map>
#include <string>

#include "benchgen/testcase.hpp"
#include "pao/evaluate.hpp"
#include "router/router.hpp"

int main() {
  using namespace pao;

  benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
  spec.numCells = 300;
  spec.numNets = 150;
  const benchgen::Testcase tc = benchgen::generate(spec, 1.0);
  std::printf("routing '%s': %zu instances, %zu nets\n",
              tc.design->name.c_str(), tc.design->instances.size(),
              tc.design->nets.size());

  // Pin access first (the paper's central thesis: resolve access before
  // routing), then the router consumes the chosen patterns.
  core::PinAccessOracle oracle(*tc.design, core::withBcaConfig());
  const core::OracleResult access = oracle.run();
  const core::FailedPinStats failed =
      core::countFailedPins(*tc.design, access);
  std::printf("pin access: %zu pins, %zu failed, %.3f s\n", failed.totalPins,
              failed.failedPins, access.wallSeconds);

  router::AccessSource source(*tc.design, access.view(),
                              router::AccessMode::kPattern);
  router::DetailedRouter rtr(*tc.design, source);
  const router::RouteResult rr = rtr.run();

  std::printf("routing: %zu/%zu nets, %zu vias, %zu wire shapes, %.3f s\n",
              rr.stats.routedNets,
              rr.stats.routedNets + rr.stats.failedNets, rr.stats.viaCount,
              rr.stats.wireShapes, rr.stats.seconds);
  std::printf("unconnected pin terms: %zu, relaxed retries: %zu\n",
              rr.stats.skippedTerms, rr.stats.relaxedRetries);

  std::map<std::string, int> kinds;
  for (const drc::Violation& v : rr.violations) {
    ++kinds[std::string(drc::toString(v.kind))];
  }
  std::printf("final DRCs: %zu total, %zu access-related\n",
              rr.violations.size(), rr.accessViolations);
  for (const auto& [kind, count] : kinds) {
    std::printf("  %-14s %d\n", kind.c_str(), count);
  }
  return 0;
}
