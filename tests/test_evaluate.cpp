// Evaluator tests: dirty-AP counting, failed-pin criteria, diagnostics.
#include "pao/evaluate.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "benchgen/testcase.hpp"
#include "test_util.hpp"

namespace pao::core {
namespace {

class EvaluateFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
    spec.numCells = 150;
    spec.numNets = 80;
    tc_ = new benchgen::Testcase(benchgen::generate(spec, 1.0));
  }
  static void TearDownTestSuite() {
    delete tc_;
    tc_ = nullptr;
  }
  static benchgen::Testcase* tc_;
};

benchgen::Testcase* EvaluateFixture::tc_ = nullptr;

TEST_F(EvaluateFixture, DirtyApTotalsMatchOracleTotals) {
  PinAccessOracle oracle(*tc_->design, withBcaConfig());
  const OracleResult res = oracle.run();
  const DirtyApStats stats = countDirtyAps(*tc_->design, res);
  EXPECT_EQ(stats.totalAps, res.totalAps());
}

TEST_F(EvaluateFixture, ForcedBadChoiceIsDetected) {
  // Sabotage the result: point one instance at a pattern index that does
  // not exist; its pins must then count as failed.
  PinAccessOracle oracle(*tc_->design, withBcaConfig());
  OracleResult res = oracle.run();
  const FailedPinStats before = countFailedPins(*tc_->design, res);
  ASSERT_EQ(before.failedPins, 0u);

  int victim = -1;
  std::size_t victimPins = 0;
  for (const db::Net& net : tc_->design->nets) {
    for (const db::NetTerm& t : net.terms) {
      if (t.isIo()) continue;
      if (victim < 0) victim = t.instIdx;
      if (t.instIdx == victim) ++victimPins;
    }
  }
  ASSERT_GE(victim, 0);
  res.chosenPattern[victim] = -1;
  const FailedPinStats after = countFailedPins(*tc_->design, res);
  EXPECT_EQ(after.failedPins, victimPins);
}

TEST_F(EvaluateFixture, DetailsAreCapped) {
  PinAccessOracle oracle(*tc_->design, legacyConfig());
  const OracleResult res = oracle.run();
  const FailedPinStats stats =
      countFailedPins(*tc_->design, res, 3, FailedPinCriterion::kChosenAp);
  EXPECT_GT(stats.failedPins, 3u);
  EXPECT_EQ(stats.details.size(), 3u);
}

TEST_F(EvaluateFixture, AnyApCriterionIsLenient) {
  PinAccessOracle oracle(*tc_->design, legacyConfig());
  const OracleResult res = oracle.run();
  const FailedPinStats strict =
      countFailedPins(*tc_->design, res, 0, FailedPinCriterion::kChosenAp);
  const FailedPinStats lenient =
      countFailedPins(*tc_->design, res, 0, FailedPinCriterion::kAnyAp);
  EXPECT_LE(lenient.failedPins, strict.failedPins);
  EXPECT_EQ(lenient.totalPins, strict.totalPins);
}

TEST_F(EvaluateFixture, OnlyNetAttachedPinsAreCounted) {
  PinAccessOracle oracle(*tc_->design, withBcaConfig());
  const OracleResult res = oracle.run();
  const FailedPinStats stats = countFailedPins(*tc_->design, res);
  EXPECT_EQ(stats.totalPins, tc_->design->numNetInstTerms());
}

// Two single-pin cells 2800 dbu apart in a tech whose M2 spacing (3000) is
// wider than 2048 dbu: their chosen vias share a pattern, so the M2
// enclosures face each other 2680 apart with full run length. The via
// bounding boxes are 2500 apart, beyond a fixed 2048-dbu neighbour radius,
// so a radius not derived from the tech (here 3000 + min step 120) would
// miss the conflict.
TEST(FailedPinRadius, WideSpacingConflictBeyond2048IsSeen) {
  test::TinyDesign td =
      test::makeTinyDesign({{0, geom::Rect{150, 300, 250, 1100}}});
  db::Layer& m2 = td.tech->layers()[td.tech->findLayer("M2")->index];
  m2.spacingTable = {{0, 0, 3000}};
  db::Design& d = *td.design;
  db::Instance far = d.instances[0];
  far.name = "u2";
  far.origin = {2800, 0};
  d.instances.push_back(far);
  d.buildInstanceIndex();
  d.nets.push_back({"n0", {{0, 0, -1}}});
  d.nets.push_back({"n1", {{1, 0, -1}}});

  PinAccessOracle oracle(d, withBcaConfig());
  const OracleResult res = oracle.run();
  const db::RowIndex rows(d);
  const FailedPinContext ctx(d, res.view(), rows);
  ASSERT_EQ(ctx.placed().size(), 2u);
  const geom::Point a = ctx.placed()[0].loc;
  const geom::Point b = ctx.placed()[1].loc;
  ASSERT_EQ(b.y, a.y);
  ASSERT_EQ(b.x - a.x, 2800);

  const FailedPinStats stats = countFailedPins(
      d, res, std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(stats.totalPins, 2u);
  ASSERT_EQ(stats.failedPins, 2u);
  for (const FailedPinDetail& detail : stats.details) {
    ASSERT_EQ(detail.violations.size(), 1u);
    EXPECT_EQ(detail.violations[0].kind, drc::RuleKind::kMetalSpacing);
    EXPECT_EQ(detail.violations[0].layer, m2.index);
  }
}

}  // namespace
}  // namespace pao::core
