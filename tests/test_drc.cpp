#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "drc/engine.hpp"
#include "geom/polygon.hpp"
#include "test_util.hpp"

namespace pao::drc {
namespace {

using geom::Point;
using geom::Rect;

class DrcFixture : public ::testing::Test {
 protected:
  DrcFixture() : tech_(test::makeTinyTech()), engine_(*tech_) {
    m1_ = tech_->findLayer("M1")->index;
    v1_ = tech_->findLayer("V1")->index;
    m2_ = tech_->findLayer("M2")->index;
    via_ = tech_->findViaDef("V1_0");
  }

  /// The boundary rings of `comp`, in the test's arena scope.
  static geom::BoundaryRings ringsOf(const std::vector<Rect>& comp) {
    geom::BoundaryRings rings;
    geom::unionBoundary(comp, rings);
    return rings;
  }

  util::ArenaScope scratch_{util::scratchArena()};
  std::unique_ptr<db::Tech> tech_;
  DrcEngine engine_;
  int m1_ = -1, v1_ = -1, m2_ = -1;
  const db::ViaDef* via_ = nullptr;
};

TEST_F(DrcFixture, SpacingPairViolationAndPass) {
  const db::Layer& m1 = tech_->layer(m1_);
  const Shape a{{0, 0, 1000, 100}, m1_, 1, ShapeKind::kWire, false};
  // 80 apart with long PRL: violates the 100 min spacing.
  const Shape close{{0, 180, 1000, 280}, m1_, 2, ShapeKind::kWire, false};
  EXPECT_TRUE(checkSpacingPair(m1, a, close).has_value());
  EXPECT_EQ(checkSpacingPair(m1, a, close)->kind, RuleKind::kMetalSpacing);
  // Exactly 100 apart: clean.
  const Shape atMin{{0, 200, 1000, 300}, m1_, 2, ShapeKind::kWire, false};
  EXPECT_FALSE(checkSpacingPair(m1, a, atMin).has_value());
  // Same net: never a spacing violation.
  const Shape sameNet{{0, 180, 1000, 280}, m1_, 1, ShapeKind::kWire, false};
  EXPECT_FALSE(checkSpacingPair(m1, a, sameNet).has_value());
  // Overlap of different nets: short.
  const Shape overlap{{500, 50, 1500, 150}, m1_, 2, ShapeKind::kWire, false};
  EXPECT_EQ(checkSpacingPair(m1, a, overlap)->kind, RuleKind::kShort);
}

TEST_F(DrcFixture, SpacingWideShapesNeedMore) {
  const db::Layer& m1 = tech_->layer(m1_);
  // Two 300-wide shapes with long PRL: table row (200,200)->200 applies.
  const Shape a{{0, 0, 1000, 300}, m1_, 1, ShapeKind::kWire, false};
  const Shape b{{0, 450, 1000, 750}, m1_, 2, ShapeKind::kWire, false};
  EXPECT_TRUE(checkSpacingPair(m1, a, b).has_value());  // gap 150 < 200
  const Shape c{{0, 500, 1000, 800}, m1_, 2, ShapeKind::kWire, false};
  EXPECT_FALSE(checkSpacingPair(m1, a, c).has_value());  // gap 200 ok
}

TEST_F(DrcFixture, SpacingCornerToCornerUsesEuclidean) {
  const db::Layer& m1 = tech_->layer(m1_);
  const Shape a{{0, 0, 100, 100}, m1_, 1, ShapeKind::kWire, false};
  // Diagonal offset (71, 71): Euclidean distance ~100.4 >= 100 -> clean.
  const Shape diagOk{{171, 171, 271, 271}, m1_, 2, ShapeKind::kWire, false};
  EXPECT_FALSE(checkSpacingPair(m1, a, diagOk).has_value());
  // (70, 70): distance ~99 -> violation.
  const Shape diagBad{{170, 170, 270, 270}, m1_, 2, ShapeKind::kWire, false};
  EXPECT_TRUE(checkSpacingPair(m1, a, diagBad).has_value());
}

TEST_F(DrcFixture, MinStepDetectsSmallNotch) {
  const db::Layer& m1 = tech_->layer(m1_);
  // An 80-tall tab sticking out of a big rect: edges of 80 < 120 min step.
  const std::vector<Rect> comp = {{0, 0, 1000, 500}, {400, 500, 480, 580}};
  const auto violations = checkMinStep(m1, ringsOf(comp));
  EXPECT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, RuleKind::kMinStep);
  // A 200-wide, 200-tall tab: all new edges >= 120 -> clean.
  const std::vector<Rect> ok = {{0, 0, 1000, 500}, {400, 500, 600, 700}};
  EXPECT_TRUE(checkMinStep(m1, ringsOf(ok)).empty());
}

TEST_F(DrcFixture, MinStepCleanRect) {
  const db::Layer& m1 = tech_->layer(m1_);
  const std::vector<Rect> big = {{0, 0, 1000, 500}};
  EXPECT_TRUE(checkMinStep(m1, ringsOf(big)).empty());
  // A rect smaller than min step on both sides is all-short-edges.
  const std::vector<Rect> tiny = {{0, 0, 100, 100}};
  EXPECT_FALSE(checkMinStep(m1, ringsOf(tiny)).empty());
}

TEST_F(DrcFixture, EolNeighborTriggersViolation) {
  const db::Layer& m1 = tech_->layer(m1_);
  // A 100-wide wire end (eolWidth 110 -> EOL edge), neighbor within the
  // 120 clearance region in front of the end.
  const std::vector<Rect> comp = {{0, 0, 1000, 100}};
  const auto rings = ringsOf(comp);
  const std::vector<Rect> near = {{1050, 0, 1200, 100}};
  const auto violations = checkEol(m1, rings, 1, near);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, RuleKind::kEndOfLine);

  // Neighbor beyond the EOL clearance: clean.
  const std::vector<Rect> far = {{1130, 0, 1300, 100}};
  EXPECT_TRUE(checkEol(m1, rings, 1, far).empty());
}

TEST_F(DrcFixture, EolWideEdgeExempt) {
  const db::Layer& m1 = tech_->layer(m1_);
  // A 200-wide wire end is not an EOL edge (>= eolWidth 110).
  const std::vector<Rect> comp = {{0, 0, 1000, 200}};
  const std::vector<Rect> near = {{1050, 0, 1200, 200}};
  EXPECT_TRUE(checkEol(m1, ringsOf(comp), 1, near).empty());
}

TEST_F(DrcFixture, MinArea) {
  const db::Layer& m1 = tech_->layer(m1_);
  // 100x500 = 50000 < 60000 -> violation.
  EXPECT_TRUE(checkMinArea(m1, {{0, 0, 500, 100}}, 1).has_value());
  // 100x600 = 60000 -> ok.
  EXPECT_FALSE(checkMinArea(m1, {{0, 0, 600, 100}}, 1).has_value());
  // Union area counts, not the sum.
  EXPECT_TRUE(
      checkMinArea(m1, {{0, 0, 500, 100}, {0, 0, 500, 100}}, 1).has_value());
}

TEST_F(DrcFixture, CutSpacing) {
  const db::Layer& v1 = tech_->layer(v1_);
  const Shape a{{0, 0, 100, 100}, v1_, 1, ShapeKind::kVia, false};
  const Shape tooClose{{180, 0, 280, 100}, v1_, 2, ShapeKind::kVia, false};
  EXPECT_TRUE(checkCutSpacingPair(v1, a, tooClose).has_value());
  const Shape ok{{200, 0, 300, 100}, v1_, 2, ShapeKind::kVia, false};
  EXPECT_FALSE(checkCutSpacingPair(v1, a, ok).has_value());
  // Same geometry and net: the shape itself, skipped.
  EXPECT_FALSE(checkCutSpacingPair(v1, a, a).has_value());
}

TEST_F(DrcFixture, ViaCleanInOpenSpace) {
  // A via on a bare pin shape in empty surroundings is clean.
  engine_.region().add(
      {{0, -100, 1200, 100}, m1_, 1, ShapeKind::kPin, true});
  EXPECT_TRUE(engine_.isViaClean(*via_, {600, 0}, 1));
}

TEST_F(DrcFixture, ViaSpacingAgainstForeignPin) {
  engine_.region().add({{0, -100, 2000, 100}, m1_, 1, ShapeKind::kPin, true});
  // Foreign metal 60 above the via enclosure top (enc spans y in [-60,60]).
  engine_.region().add({{0, 120, 2000, 260}, m1_, 2, ShapeKind::kPin, true});
  const auto violations = engine_.checkVia(*via_, {600, 0}, 1);
  EXPECT_FALSE(violations.empty());
}

TEST_F(DrcFixture, ViaMinStepAtPinCorner) {
  // Via enclosure crossing the pin's top corner: the overhang creates two
  // CONSECUTIVE short edges (30 vertical + 90 horizontal), which exceeds
  // maxEdges = 1 — the Fig. 3 scenario.
  // Enclosure [550,850]x[910,1030] clips the bar's top-right corner: the
  // remaining bar-top stub (50) meets the enclosure's side step (30).
  engine_.region().add({{500, 0, 620, 1000}, m1_, 1, ShapeKind::kPin, true});
  const auto violations = engine_.checkVia(*via_, {700, 970}, 1);
  bool sawMinStep = false;
  for (const Violation& v : violations) {
    if (v.kind == RuleKind::kMinStep) sawMinStep = true;
  }
  EXPECT_TRUE(sawMinStep);

  // The same via centered mid-bar leaves only isolated short edges
  // (overhang tabs whose outer edge is exactly minStep long): legal.
  DrcEngine mid(*tech_);
  mid.region().add({{500, 0, 620, 1000}, m1_, 1, ShapeKind::kPin, true});
  for (const Violation& v : mid.checkVia(*via_, {560, 500}, 1)) {
    EXPECT_NE(v.kind, RuleKind::kMinStep) << v.describe();
  }
}

TEST_F(DrcFixture, ViaCutSpacingAgainstNearbyCut) {
  engine_.region().add({{0, -100, 2000, 100}, m1_, 1, ShapeKind::kPin, true});
  // A fixed foreign cut 80 away from where our cut will land.
  engine_.region().add(
      {{730, -50, 830, 50}, v1_, 2, ShapeKind::kVia, true});
  const auto violations = engine_.checkVia(*via_, {600, 0}, 1);
  bool sawCut = false;
  for (const Violation& v : violations) {
    if (v.kind == RuleKind::kCutSpacing) sawCut = true;
  }
  EXPECT_TRUE(sawCut);
}

TEST_F(DrcFixture, ViaPairConflictAndResolution) {
  // Two pins side by side; vias at the same y conflict via bottom-enclosure
  // spacing, vias far apart are compatible.
  engine_.region().add({{0, 0, 120, 1000}, m1_, 1, ShapeKind::kPin, true});
  engine_.region().add({{400, 0, 520, 1000}, m1_, 2, ShapeKind::kPin, true});
  // Enclosures: x in [60-150, 60+150] = [-90,210] and [460-150,460+150] =
  // [310,610]; gap 100 >= spacing 100 -> clean... make them closer in y to
  // check the PRL effect: same y -> PRL = 120 > 0, gap 100 -> exactly ok.
  EXPECT_TRUE(engine_
                  .checkViaPair(*via_, {60, 500}, 1, *via_, {460, 500}, 2)
                  .empty());
  // Shift the second pin 40 left: gap 60 < 100 -> conflict.
  DrcEngine e2(*tech_);
  e2.region().add({{0, 0, 120, 1000}, m1_, 1, ShapeKind::kPin, true});
  e2.region().add({{360, 0, 480, 1000}, m1_, 2, ShapeKind::kPin, true});
  EXPECT_FALSE(
      e2.checkViaPair(*via_, {60, 500}, 1, *via_, {420, 500}, 2).empty());
}

TEST_F(DrcFixture, CheckAllFindsPlantedViolations) {
  // Plant one spacing violation between routed wires and one min-area wire.
  engine_.region().add({{0, 0, 1000, 100}, m1_, 1, ShapeKind::kWire, false});
  engine_.region().add(
      {{0, 150, 1000, 250}, m1_, 2, ShapeKind::kWire, false});
  engine_.region().add(
      {{5000, 5000, 5200, 5100}, m1_, 3, ShapeKind::kWire, false});
  const auto violations = engine_.checkAll();
  int spacing = 0, minArea = 0;
  for (const Violation& v : violations) {
    if (v.kind == RuleKind::kMetalSpacing) ++spacing;
    if (v.kind == RuleKind::kMinArea) ++minArea;
  }
  EXPECT_EQ(spacing, 1);
  EXPECT_EQ(minArea, 1);
}

TEST_F(DrcFixture, CheckAllParallelMatchesSerial) {
  // Determinism regression for the sharded batch check: a layout dense
  // enough to split across many shards (wires, vias, obstructions and a few
  // planted violations) must yield the exact same canonically-sorted
  // violation vector for every thread count.
  for (int i = 0; i < 60; ++i) {
    const geom::Coord x = (i % 10) * 600;
    const geom::Coord y = (i / 10) * 400;
    // Wires on M1/M2; every 7th pair is squeezed under min spacing.
    const geom::Coord squeeze = (i % 7 == 0) ? 60 : 0;
    engine_.region().add(
        {{x, y, x + 500, y + 100}, m1_, i, ShapeKind::kWire, false});
    engine_.region().add({{x, y + 200 - squeeze, x + 500, y + 300 - squeeze},
                          m2_, i + 1000, ShapeKind::kWire, false});
    // Vias; every 9th pair under cut spacing.
    if (i % 3 == 0) {
      const geom::Coord cutGap = (i % 9 == 0) ? 80 : 300;
      engine_.region().add(
          {{x, y + 80, x + 100, y + 180}, v1_, i, ShapeKind::kVia, false});
      engine_.region().add({{x + 100 + cutGap, y + 80, x + 200 + cutGap,
                             y + 180},
                            v1_, i + 1, ShapeKind::kVia, false});
    }
    // Undersized stub wires for min-area / min-step hits.
    if (i % 11 == 0) {
      engine_.region().add({{x + 5000, y, x + 5100, y + 90}, m1_, i + 2000,
                            ShapeKind::kWire, false});
    }
  }
  const std::vector<Violation> serial = engine_.checkAll(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_TRUE(std::is_sorted(serial.begin(), serial.end(), violationLess));
  EXPECT_EQ(engine_.checkAll(4), serial);
  EXPECT_EQ(engine_.checkAll(0), serial);
}

TEST_F(DrcFixture, CheckAllSkipsFixedPairs) {
  // Two fixed pins in violation distance: library geometry is not checked.
  engine_.region().add({{0, 0, 1000, 100}, m1_, 1, ShapeKind::kPin, true});
  engine_.region().add({{0, 150, 1000, 250}, m1_, 2, ShapeKind::kPin, true});
  EXPECT_TRUE(engine_.checkAll().empty());
}

}  // namespace
}  // namespace pao::drc
