// AccessSource tests: the three pin-access modes feeding the router.
#include "router/access_source.hpp"

#include <gtest/gtest.h>

#include "benchgen/testcase.hpp"

namespace pao::router {
namespace {

class AccessSourceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
    spec.numCells = 120;
    spec.numNets = 60;
    tc_ = new benchgen::Testcase(benchgen::generate(spec, 1.0));
    oracle_ = new core::OracleResult(
        core::PinAccessOracle(*tc_->design, core::withBcaConfig()).run());
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete tc_;
    tc_ = nullptr;
    oracle_ = nullptr;
  }

  /// First net-attached (inst, sigPinPos) in the design.
  std::pair<int, int> firstAttachedPin() const {
    for (const db::Net& net : tc_->design->nets) {
      for (const db::NetTerm& t : net.terms) {
        if (t.isIo()) continue;
        const auto sig =
            tc_->design->instances[t.instIdx].master->signalPinIndices();
        for (int i = 0; i < static_cast<int>(sig.size()); ++i) {
          if (sig[i] == t.pinIdx) return {t.instIdx, i};
        }
      }
    }
    return {-1, -1};
  }

  static benchgen::Testcase* tc_;
  static core::OracleResult* oracle_;
};

benchgen::Testcase* AccessSourceFixture::tc_ = nullptr;
core::OracleResult* AccessSourceFixture::oracle_ = nullptr;

TEST_F(AccessSourceFixture, PatternModeMatchesOracleChoice) {
  AccessSource src(*tc_->design, oracle_->view(), AccessMode::kPattern);
  const auto [inst, pin] = firstAttachedPin();
  ASSERT_GE(inst, 0);
  const auto contact = src.contact(inst, pin);
  ASSERT_TRUE(contact.has_value());
  const auto chosen = oracle_->chosenAp(*tc_->design, inst, pin);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(contact->loc, chosen->loc);
  EXPECT_EQ(contact->via, chosen->ap->primaryVia(*tc_->design->tech));
}

TEST_F(AccessSourceFixture, FirstApModeTakesTheFirstPoint) {
  AccessSource src(*tc_->design, oracle_->view(), AccessMode::kFirstAp);
  const auto [inst, pin] = firstAttachedPin();
  const int cls = oracle_->unique.classOf[inst];
  const auto contact = src.contact(inst, pin);
  ASSERT_TRUE(contact.has_value());
  const core::AccessPoint& first = oracle_->classes[cls].pinAps[pin].front();
  // Class access is origin-relative: the instance origin places it.
  EXPECT_EQ(contact->loc, first.loc + tc_->design->instances[inst].origin);
}

TEST_F(AccessSourceFixture, GreedyPicksNearestToCentroid) {
  AccessSource src(*tc_->design, oracle_->view(), AccessMode::kGreedyNearest);
  const auto [inst, pin] = firstAttachedPin();
  const auto contact = src.contact(inst, pin);
  ASSERT_TRUE(contact.has_value());
  // The greedy choice must be one of the pin's generated points.
  const int cls = oracle_->unique.classOf[inst];
  const geom::Point origin = tc_->design->instances[inst].origin;
  bool found = false;
  for (const core::AccessPoint& ap : oracle_->classes[cls].pinAps[pin]) {
    if (ap.loc + origin == contact->loc) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(AccessSourceFixture, OutOfRangeQueriesReturnNothing) {
  AccessSource src(*tc_->design, oracle_->view(), AccessMode::kPattern);
  EXPECT_FALSE(src.contact(0, 99).has_value());
}

TEST_F(AccessSourceFixture, AllModesCoverAllAttachedPins) {
  for (const AccessMode mode :
       {AccessMode::kFirstAp, AccessMode::kGreedyNearest,
        AccessMode::kPattern}) {
    AccessSource src(*tc_->design, oracle_->view(), mode);
    std::size_t covered = 0;
    std::size_t total = 0;
    for (const db::Net& net : tc_->design->nets) {
      for (const db::NetTerm& t : net.terms) {
        if (t.isIo()) continue;
        const auto sig =
            tc_->design->instances[t.instIdx].master->signalPinIndices();
        for (int i = 0; i < static_cast<int>(sig.size()); ++i) {
          if (sig[i] != t.pinIdx) continue;
          ++total;
          if (src.contact(t.instIdx, i)) ++covered;
        }
      }
    }
    // PAAF-generated points exist for every pin here, so every mode covers
    // every pin (the legacy generator's gaps are exercised in test_router).
    EXPECT_EQ(covered, total) << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace pao::router
