// Multi-height cell support (the paper's future-work item i): generation,
// placement legality, multi-row clustering, and full-flow quality.
#include <gtest/gtest.h>

#include "benchgen/testcase.hpp"
#include "pao/cluster_select.hpp"
#include "pao/evaluate.hpp"
#include "pao/oracle.hpp"
#include "reference.hpp"

namespace pao {
namespace {

benchgen::Testcase multiHeightCase() {
  benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
  spec.numCells = 250;
  spec.numNets = 120;
  spec.multiHeightFraction = 0.12;
  spec.seed = 7;
  return benchgen::generate(spec, 1.0);
}

TEST(MultiHeight, MasterIsGenerated) {
  const benchgen::Testcase tc = multiHeightCase();
  const db::Master* dffh = tc.lib->findMaster("DFFHX1");
  ASSERT_NE(dffh, nullptr);
  const benchgen::NodeParams node = benchgen::nodeParams(tc.spec.node);
  EXPECT_EQ(dffh->height, 2 * benchgen::cellHeight(node));
  // Three rails (VSS bottom+top share a pin, VDD in the middle) + 4 signals.
  EXPECT_EQ(dffh->signalPinIndices().size(), 4u);
}

TEST(MultiHeight, PlacementsArePresentAndLegal) {
  const benchgen::Testcase tc = multiHeightCase();
  int multi = 0;
  const auto& insts = tc.design->instances;
  for (std::size_t i = 0; i < insts.size(); ++i) {
    if (insts[i].master->name == "DFFHX1") ++multi;
    for (std::size_t j = i + 1; j < insts.size(); ++j) {
      ASSERT_FALSE(insts[i].bbox().overlaps(insts[j].bbox()))
          << insts[i].name << " overlaps " << insts[j].name;
    }
  }
  EXPECT_GT(multi, 0);
}

TEST(MultiHeight, JoinsClustersOfBothRows) {
  const benchgen::Testcase tc = multiHeightCase();
  int dffh = -1;
  for (int i = 0; i < static_cast<int>(tc.design->instances.size()); ++i) {
    if (tc.design->instances[i].master->name == "DFFHX1") {
      dffh = i;
      break;
    }
  }
  ASSERT_GE(dffh, 0);
  int memberships = 0;
  for (const std::vector<int>& cluster :
       reference::buildClusters(*tc.design)) {
    for (const int idx : cluster) {
      if (idx == dffh) ++memberships;
    }
  }
  // The double-height cell must be clustered with both rows it spans
  // (unless one of the two rows happens to hold no other instance at all).
  EXPECT_GE(memberships, 1);
  EXPECT_LE(memberships, 2);
}

TEST(MultiHeight, FullFlowStaysClean) {
  const benchgen::Testcase tc = multiHeightCase();
  core::PinAccessOracle oracle(*tc.design, core::withBcaConfig());
  const core::OracleResult res = oracle.run();
  EXPECT_EQ(core::countDirtyAps(*tc.design, res).dirtyAps, 0u);
  const core::FailedPinStats failed = core::countFailedPins(*tc.design, res);
  EXPECT_GT(failed.totalPins, 0u);
  EXPECT_EQ(failed.failedPins, 0u);
  // The double-height instances themselves received patterns.
  for (int i = 0; i < static_cast<int>(tc.design->instances.size()); ++i) {
    if (tc.design->instances[i].master->name == "DFFHX1") {
      EXPECT_GE(res.chosenPattern[i], 0);
    }
  }
}

TEST(MultiHeight, PinnedPatternIsConsistentAcrossClusters) {
  // Re-running Step 3 twice (second run sees the first run's choices as
  // fresh state) must be deterministic.
  const benchgen::Testcase tc = multiHeightCase();
  core::PinAccessOracle o1(*tc.design, core::withBcaConfig());
  const core::OracleResult r1 = o1.run();
  core::PinAccessOracle o2(*tc.design, core::withBcaConfig());
  const core::OracleResult r2 = o2.run();
  EXPECT_EQ(r1.chosenPattern, r2.chosenPattern);
}

}  // namespace
}  // namespace pao
