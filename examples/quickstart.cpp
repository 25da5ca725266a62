// Quickstart: build a small design, run the full pin access analysis flow
// (Steps 1-3 of the paper), and inspect the results through the public API.
//
//   $ ./examples/quickstart
//
// Walks through: unique-instance extraction, per-pin access points with
// their coordinate types, access patterns, and the final per-instance
// pattern selection.
#include <cstdio>

#include "benchgen/testcase.hpp"
#include "pao/evaluate.hpp"
#include "pao/oracle.hpp"

int main() {
  using namespace pao;

  // 1. A design. Here we synthesize a small 45nm-like testcase; real users
  //    would parse LEF/DEF instead (see the lefdef_roundtrip example).
  benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
  spec.numCells = 300;
  spec.numNets = 150;
  const benchgen::Testcase tc = benchgen::generate(spec, 1.0);
  std::printf("design '%s': %zu instances, %zu nets\n",
              tc.design->name.c_str(), tc.design->instances.size(),
              tc.design->nets.size());

  // 2. Run the oracle: Step 1 (access points), Step 2 (patterns), Step 3
  //    (cluster selection), with boundary-conflict awareness.
  core::PinAccessOracle oracle(*tc.design, core::withBcaConfig());
  const core::OracleResult result = oracle.run();
  std::printf("unique instances: %zu (analysis shared by %zu placements)\n",
              result.unique.classes.size(), tc.design->instances.size());

  // 3. Inspect one unique instance's access data.
  for (std::size_t c = 0; c < result.unique.classes.size(); ++c) {
    const core::ClassAccess& ca = result.classes[c];
    if (ca.patterns.empty()) continue;
    const db::UniqueInstance& ui = result.unique.classes[c];
    std::printf("\nunique instance %zu: master=%s orient=%s members=%zu\n",
                c, ui.master->name.c_str(),
                std::string(geom::toString(ui.orient)).c_str(),
                ui.members.size());
    const char* typeNames[] = {"on-track", "half-track", "shape-center",
                               "enc-boundary"};
    for (std::size_t p = 0; p < ca.pinAps.size(); ++p) {
      const int masterPin = ui.master->signalPinIndices()[p];
      // Class access is shared by every member, so its locations are
      // relative to the instance origin: add a member's origin to place one.
      std::printf("  pin %-4s: %zu access points (origin-relative)\n",
                  ui.master->pins[masterPin].name.c_str(),
                  ca.pinAps[p].size());
      for (const core::AccessPoint& ap : ca.pinAps[p]) {
        std::printf("    (%lld, %lld) pref=%s nonPref=%s vias=%zu dirs=%c%c%c%c%c\n",
                    static_cast<long long>(ap.loc.x),
                    static_cast<long long>(ap.loc.y),
                    typeNames[static_cast<int>(ap.prefType)],
                    typeNames[static_cast<int>(ap.nonPrefType)],
                    ap.viaIdx.size(), ap.dirs & core::kEast ? 'E' : '-',
                    ap.dirs & core::kWest ? 'W' : '-',
                    ap.dirs & core::kNorth ? 'N' : '-',
                    ap.dirs & core::kSouth ? 'S' : '-',
                    ap.hasUp() ? 'U' : '-');
      }
    }
    std::printf("  patterns: %zu (cost of best: %lld)\n", ca.patterns.size(),
                ca.patterns.front().cost);
    break;  // one class is enough for the tour
  }

  // 4. Quality metrics — the paper's Experiment 1 and 2 statistics.
  const core::DirtyApStats dirty = core::countDirtyAps(*tc.design, result);
  const core::FailedPinStats failed =
      core::countFailedPins(*tc.design, result);
  std::printf("\naccess points: %zu total, %zu dirty\n", dirty.totalAps,
              dirty.dirtyAps);
  std::printf("net-attached pins: %zu, failed: %zu\n", failed.totalPins,
              failed.failedPins);
  std::printf("runtime: %.3f s wall (%.3f / %.3f / %.3f s cpu per step)\n",
              result.wallSeconds, result.step1CpuSeconds,
              result.step2CpuSeconds, result.step3CpuSeconds);
  return 0;
}
