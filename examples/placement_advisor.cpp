// Placement advisor: using pin access analysis inside a placement loop —
// the use case the paper calls out in Experiment 2 ("runtime is one of the
// most important aspects ... especially for support of placement
// optimizations, where frequent changes in placement require a tremendous
// amount of inter-cell pin access analysis").
//
// The example takes a legal placement, tries several candidate positions
// for one cell through an incremental OracleSession, and ranks them by
// resulting pin-access quality (failed pins) — the kind of query a detailed
// placer would issue per move.
#include <chrono>
#include <cstdio>

#include "benchgen/testcase.hpp"
#include "pao/evaluate.hpp"
#include "pao/session.hpp"

int main() {
  using namespace pao;

  benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[4];  // 32nm
  spec.numCells = 200;
  spec.numNets = 120;
  spec.numIoPins = 24;
  benchgen::Testcase tc = benchgen::generate(spec, 1.0);
  db::Design& design = *tc.design;

  // Pick a movable cell: the first multi-pin core instance.
  int victim = -1;
  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    if (design.instances[i].master->cls == db::MasterClass::kCore &&
        design.instances[i].master->signalPinIndices().size() >= 3) {
      victim = i;
      break;
    }
  }
  if (victim < 0) {
    std::printf("no movable cell found\n");
    return 1;
  }
  const geom::Point home = design.instances[victim].origin;
  std::printf("advising placement for %s (master %s) at (%lld, %lld)\n",
              design.instances[victim].name.c_str(),
              design.instances[victim].master->name.c_str(),
              static_cast<long long>(home.x),
              static_cast<long long>(home.y));

  // Candidate x offsets in site steps; each shifts the cell along its row.
  // (A real placer would also check overlap legality; we only score access.)
  // One OracleSession serves every candidate: a move re-analyzes at most
  // the one new signature it creates and re-runs only the clusters of the
  // rows it touched, and failedPins() re-checks only the pins whose checks
  // the move can reach.
  core::OracleSession session(design, core::withBcaConfig());
  const std::size_t totalPins = session.failedPins().totalPins;

  std::printf("%-12s %12s %12s %12s %12s\n", "candidate", "x-offset",
              "failedPins", "wall(s)", "rechecked");
  for (const int sites : {0, 1, 2, 3, 5, 8}) {
    const geom::Coord dx = sites * spec.siteWidth;
    const auto t0 = std::chrono::steady_clock::now();
    session.moveInstance(victim, {home.x + dx, home.y});
    const core::FailedPinStats failed = session.failedPins();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    std::printf("%-12s %12lld %12zu %12.4f %12zu\n",
                sites == 0 ? "home" : "shifted", static_cast<long long>(dx),
                failed.failedPins, wall, session.stats().lastPinsRechecked);
  }
  session.moveInstance(victim, home);
  std::printf("%zu pins; %zu class analyses and %zu cluster DPs across all "
              "moves\n",
              totalPins, session.stats().classBuilds,
              session.stats().clusterDpRuns);
  return 0;
}
