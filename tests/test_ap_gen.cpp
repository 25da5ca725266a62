#include "pao/ap_gen.hpp"

#include <gtest/gtest.h>

#include "pao/inst_context.hpp"
#include "test_util.hpp"

namespace pao::core {
namespace {

using geom::Rect;

// Tiny tech recap: M1 horizontal, tracks y = 200+k*400; M2 vertical, tracks
// x = 200+k*400; via bottom enclosure 300x120, spacing 100, min step 120.

class ApGenFixture : public ::testing::Test {
 protected:
  /// Builds a single-pin cell and returns the generated APs for it.
  std::vector<AccessPoint> generateFor(const std::vector<db::PinShape>& shapes,
                                       ApGenConfig cfg = {},
                                       const std::vector<db::Obstruction>& obs = {}) {
    td_ = test::makeTinyDesign(shapes, obs);
    ui_ = db::UniqueInstanceIndex(*td_.design, 1).classes();
    ctx_ = std::make_unique<InstContext>(*td_.design, ui_.classes[0]);
    return AccessPointGenerator(*ctx_, cfg).generate(
        ctx_->signalPins()[0]);
  }

  test::TinyDesign td_;
  db::UniqueInstances ui_;
  std::unique_ptr<InstContext> ctx_;
};

TEST_F(ApGenFixture, OnTrackPointsFirst) {
  // Vertical bar crossing track y=600, x-span containing track x=200.
  const auto aps = generateFor({{0, Rect{140, 300, 260, 900}}});
  ASSERT_FALSE(aps.empty());
  // The first AP is the (on-track, on-track) point.
  EXPECT_EQ(aps[0].loc, geom::Point(200, 600));
  EXPECT_EQ(aps[0].prefType, CoordType::kOnTrack);
  EXPECT_EQ(aps[0].nonPrefType, CoordType::kOnTrack);
  EXPECT_TRUE(aps[0].hasUp());
  ASSERT_NE(aps[0].primaryVia(*td_.design->tech), nullptr);
  EXPECT_EQ(aps[0].primaryVia(*td_.design->tech)->name, "V1_0");
}

TEST_F(ApGenFixture, EarlyTerminationAroundK) {
  const auto aps = generateFor({{0, Rect{140, 300, 260, 900}}});
  // k = 3 and candidates come in small batches: at least 3, not many more.
  EXPECT_GE(aps.size(), 3u);
  EXPECT_LE(aps.size(), 6u);

  ApGenConfig k1;
  k1.k = 1;
  EXPECT_GE(generateFor({{0, Rect{140, 300, 260, 900}}}, k1).size(), 1u);
  EXPECT_LT(generateFor({{0, Rect{140, 300, 260, 900}}}, k1).size(), 3u);
}

TEST_F(ApGenFixture, AllPointsOnPinShape) {
  const Rect bar{140, 300, 260, 900};
  for (const AccessPoint& ap : generateFor({{0, bar}})) {
    EXPECT_TRUE(bar.contains(ap.loc)) << ap.loc;
  }
}

TEST_F(ApGenFixture, CostOrderIsMonotone) {
  const auto aps = generateFor({{0, Rect{140, 300, 260, 900}}});
  // Generation sweeps type combinations in cost order; within one pin the
  // sequence of (nonPref, pref) cost keys must be non-decreasing
  // lexicographically by (t1, t0).
  for (std::size_t i = 1; i < aps.size(); ++i) {
    const auto key = [](const AccessPoint& ap) {
      return std::make_pair(cost(ap.nonPrefType), cost(ap.prefType));
    };
    EXPECT_LE(key(aps[i - 1]), key(aps[i]));
  }
}

TEST_F(ApGenFixture, OffTrackPinFallsBackToShapeCenter) {
  // Bar y-span [650, 890] touches no track (600, 1000); the half-track 800
  // candidate and the shape-center 770 candidate both leave sub-minStep
  // leftover strips above/below the enclosure, so only enclosure-boundary
  // points validate. x-span [140,260] touches track 200.
  const auto aps = generateFor({{0, Rect{140, 650, 260, 890}}});
  ASSERT_FALSE(aps.empty());
  for (const AccessPoint& ap : aps) {
    EXPECT_GE(cost(ap.prefType), cost(CoordType::kShapeCenter));
  }
}

TEST_F(ApGenFixture, EnclosureBoundaryCandidates) {
  // Same off-track bar: enclosure-boundary candidates align the via bottom
  // enclosure (y half-height 60) flush with a pin edge: y = 710 or 830.
  const auto aps = generateFor({{0, Rect{140, 650, 260, 890}}});
  bool sawEncBoundary = false;
  for (const AccessPoint& ap : aps) {
    if (ap.prefType == CoordType::kEnclosureBoundary) {
      sawEncBoundary = true;
      EXPECT_TRUE(ap.loc.y == 650 + 60 || ap.loc.y == 890 - 60) << ap.loc;
    }
  }
  EXPECT_TRUE(sawEncBoundary);
}

TEST_F(ApGenFixture, RequireViaFiltersBlockedPoints) {
  // An obstruction blankets the area right of the pin on M1, close enough
  // (gap 40 < spacing 100) to kill every via enclosure.
  const auto aps = generateFor({{0, Rect{140, 300, 260, 900}}}, {},
                               {{0, Rect{400, 0, 1200, 1200}}});
  EXPECT_TRUE(aps.empty());

  // Without the via requirement, planar access (west, away from the
  // obstruction) still validates.
  ApGenConfig planar;
  planar.requireVia = false;
  const auto planarAps = generateFor({{0, Rect{140, 300, 260, 900}}}, planar,
                                     {{0, Rect{400, 0, 1200, 1200}}});
  ASSERT_FALSE(planarAps.empty());
  for (const AccessPoint& ap : planarAps) {
    EXPECT_FALSE(ap.hasUp());
    EXPECT_NE(ap.dirs & kWest, 0);
  }
}

TEST_F(ApGenFixture, PlanarDirectionsReported) {
  const auto aps = generateFor({{0, Rect{140, 300, 260, 900}}});
  ASSERT_FALSE(aps.empty());
  // Nothing blocks any side in the tiny design.
  EXPECT_EQ(aps[0].dirs & (kEast | kWest | kNorth | kSouth),
            kEast | kWest | kNorth | kSouth);
}

TEST_F(ApGenFixture, LShapedPinUsesMaxRects) {
  // L-shape: vertical bar + foot. Shape-center coordinates come from the
  // maximal rectangles, so the foot contributes its own candidates.
  const auto aps = generateFor(
      {{0, Rect{140, 300, 260, 900}}, {0, Rect{140, 300, 700, 420}}});
  ASSERT_FALSE(aps.empty());
  bool footAp = false;
  for (const AccessPoint& ap : aps) {
    if (ap.loc.x > 260) footAp = true;
  }
  EXPECT_TRUE(footAp);
}

TEST_F(ApGenFixture, DeduplicatesAcrossTypeCombos) {
  const auto aps = generateFor({{0, Rect{140, 300, 260, 900}}});
  for (std::size_t i = 0; i < aps.size(); ++i) {
    for (std::size_t j = i + 1; j < aps.size(); ++j) {
      EXPECT_NE(aps[i].loc, aps[j].loc);
    }
  }
}

TEST_F(ApGenFixture, GenerateAllCoversEveryPin) {
  td_ = test::makeTinyDesign({{0, Rect{140, 300, 260, 900}}});
  // Add a second signal pin to the master.
  db::Master* m = const_cast<db::Master*>(td_.lib->findMaster("CELL"));
  db::Pin& b = m->pins.emplace_back();
  b.name = "B";
  b.use = db::PinUse::kSignal;
  b.shapes.push_back({0, Rect{540, 300, 660, 900}});

  ui_ = db::UniqueInstanceIndex(*td_.design, 1).classes();
  ctx_ = std::make_unique<InstContext>(*td_.design, ui_.classes[0]);
  const auto all = AccessPointGenerator(*ctx_).generateAll();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_FALSE(all[0].empty());
  EXPECT_FALSE(all[1].empty());
}

}  // namespace
}  // namespace pao::core
