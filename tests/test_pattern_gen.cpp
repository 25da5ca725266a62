#include "pao/pattern_gen.hpp"

#include <gtest/gtest.h>

#include "pao/ap_gen.hpp"
#include "test_util.hpp"

namespace pao::core {
namespace {

using geom::Point;
using geom::Rect;

/// Builds a two-pin cell whose bars are so close that same-y vias overlap:
/// the DP must stagger the chosen y coordinates.
class PatternFixture : public ::testing::Test {
 protected:
  void build(geom::Coord barBx, geom::Coord barBHalfWidth = 60) {
    td_ = test::makeTinyDesign({{0, Rect{140, 300, 260, 1100}}});
    db::Master* m = const_cast<db::Master*>(td_.lib->findMaster("CELL"));
    db::Pin& b = m->pins.emplace_back();
    b.name = "B";
    b.use = db::PinUse::kSignal;
    b.shapes.push_back({0, Rect{barBx - barBHalfWidth, 300,
                                barBx + barBHalfWidth, 1100}});
    ui_ = db::UniqueInstanceIndex(*td_.design, 1).classes();
    ctx_ = std::make_unique<InstContext>(*td_.design, ui_.classes[0]);
    aps_ = AccessPointGenerator(*ctx_).generateAll();
  }

  test::TinyDesign td_;
  db::UniqueInstances ui_;
  std::unique_ptr<InstContext> ctx_;
  std::vector<std::vector<AccessPoint>> aps_;
};

TEST_F(PatternFixture, PinOrderFollowsX) {
  build(600);
  PatternGenerator gen(*ctx_, aps_);
  ASSERT_EQ(gen.pinOrder().size(), 2u);
  // Pin A (x ~ 200) orders before pin B (x ~ 600).
  EXPECT_EQ(gen.pinOrder()[0], 0);
  EXPECT_EQ(gen.pinOrder()[1], 1);
}

TEST_F(PatternFixture, AlphaTiltsOrdering) {
  // Two pins at the same x but different y: with alpha > 0 the lower pin
  // orders first; with alpha = 0 the order is unchanged (stable by x).
  td_ = test::makeTinyDesign({{0, Rect{140, 700, 260, 1100}}});
  db::Master* m = const_cast<db::Master*>(td_.lib->findMaster("CELL"));
  db::Pin& b = m->pins.emplace_back();
  b.name = "B";
  b.use = db::PinUse::kSignal;
  b.shapes.push_back({0, Rect{140, 140, 260, 500}});  // same x, lower y
  ui_ = db::UniqueInstanceIndex(*td_.design, 1).classes();
  ctx_ = std::make_unique<InstContext>(*td_.design, ui_.classes[0]);
  aps_ = AccessPointGenerator(*ctx_).generateAll();
  ASSERT_FALSE(aps_[0].empty());
  ASSERT_FALSE(aps_[1].empty());

  PatternGenConfig cfg;
  cfg.alpha = 0.3;
  PatternGenerator gen(*ctx_, aps_, cfg);
  EXPECT_EQ(gen.pinOrder()[0], 1);  // pin B has smaller y-average
  EXPECT_EQ(gen.pinOrder()[1], 0);
}

TEST_F(PatternFixture, ConflictingPinsGetStaggeredAccess) {
  // Pin B is a narrow off-track bar at x ~ 540: its access x falls on the
  // shape center, whose enclosure sits 40 from pin A's on-track enclosure
  // (< spacing 100) at equal y — yet 130 from A's bar, so every via is
  // individually clean. A valid pattern must stagger the y coordinates.
  build(540, 50);
  ASSERT_FALSE(aps_[0].empty());
  ASSERT_FALSE(aps_[1].empty());
  PatternGenerator gen(*ctx_, aps_);
  const auto patterns = gen.run();
  ASSERT_FALSE(patterns.empty());
  const AccessPattern& p = patterns[0];
  ASSERT_GE(p.apIdx.size(), 2u);
  ASSERT_GE(p.apIdx[0], 0);
  ASSERT_GE(p.apIdx[1], 0);
  const Point a = aps_[0][p.apIdx[0]].loc;
  const Point b = aps_[1][p.apIdx[1]].loc;
  EXPECT_NE(a.y, b.y) << "conflicting same-y access chosen";
  EXPECT_TRUE(p.validated);
}

TEST_F(PatternFixture, NonConflictingPinsTakeCheapestPoints) {
  // Bars far apart, each containing an on-track x (200 and 1000): both pins
  // can take their best (on-track, on-track) points.
  build(1000);
  PatternGenerator gen(*ctx_, aps_);
  const auto patterns = gen.run();
  ASSERT_FALSE(patterns.empty());
  const AccessPattern& p = patterns[0];
  EXPECT_EQ(aps_[0][p.apIdx[0]].typeCost(), 0);
  EXPECT_EQ(aps_[1][p.apIdx[1]].typeCost(), 0);
  EXPECT_TRUE(p.validated);
}

TEST_F(PatternFixture, BcaProducesDistinctBoundaryAccess) {
  build(800);
  PatternGenConfig cfg;
  cfg.numPatterns = 3;
  PatternGenerator gen(*ctx_, aps_, cfg);
  const auto patterns = gen.run();
  ASSERT_GE(patterns.size(), 2u);
  // Boundary pins are A (first) and B (last); their APs must differ across
  // the first two patterns.
  EXPECT_TRUE(patterns[0].apIdx[0] != patterns[1].apIdx[0] ||
              patterns[0].apIdx[1] != patterns[1].apIdx[1]);
}

TEST_F(PatternFixture, WithoutBcaSinglePattern) {
  build(800);
  PatternGenConfig cfg;
  cfg.numPatterns = 1;
  cfg.boundaryAware = false;
  const auto patterns = PatternGenerator(*ctx_, aps_, cfg).run();
  EXPECT_EQ(patterns.size(), 1u);
}

TEST_F(PatternFixture, PinsWithoutApsAreExcluded) {
  build(800);
  aps_[1].clear();  // pin B loses all access points
  PatternGenerator gen(*ctx_, aps_);
  EXPECT_EQ(gen.pinOrder().size(), 1u);
  const auto patterns = gen.run();
  ASSERT_FALSE(patterns.empty());
  EXPECT_GE(patterns[0].apIdx[0], 0);
  EXPECT_EQ(patterns[0].apIdx[1], -1);
}

TEST_F(PatternFixture, EmptyCellYieldsNoPatterns) {
  build(800);
  aps_[0].clear();
  aps_[1].clear();
  EXPECT_TRUE(PatternGenerator(*ctx_, aps_).run().empty());
}

TEST_F(PatternFixture, PairChecksAreMemoized) {
  build(540, 50);
  PatternGenConfig cfg;
  cfg.numPatterns = 3;
  PatternGenerator gen(*ctx_, aps_, cfg);
  gen.run();
  // Upper bound: every (apA, apB) pair checked at most once despite three DP
  // iterations over the same graph.
  const std::size_t maxPairs = aps_[0].size() * aps_[1].size() +
                               aps_[0].size() + aps_[1].size();
  EXPECT_LE(gen.numPairChecks(), maxPairs);
}

}  // namespace
}  // namespace pao::core
