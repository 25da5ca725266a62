#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "benchgen/testcase.hpp"
#include "db/legality.hpp"
#include "db/unique_inst.hpp"
#include "test_util.hpp"

namespace pao::db {
namespace {

TEST(Layer, SpacingTableLookup) {
  Layer l;
  l.spacingTable = {{0, 0, 100}, {200, 200, 200}, {600, 600, 400}};
  EXPECT_EQ(l.minSpacing(), 100);
  // Narrow wire, short PRL: default row.
  EXPECT_EQ(l.spacing(100, 50), 100);
  // Wide shape but not enough PRL: still default.
  EXPECT_EQ(l.spacing(300, 100), 100);
  // Wide shape with long PRL: second row.
  EXPECT_EQ(l.spacing(300, 300), 200);
  // Very wide: third row.
  EXPECT_EQ(l.spacing(700, 700), 400);
  // Thresholds are exclusive (LEF semantics: width > w, prl > p).
  EXPECT_EQ(l.spacing(200, 200), 100);
  EXPECT_EQ(l.spacing(201, 201), 200);
}

TEST(Layer, EmptySpacingTable) {
  Layer l;
  EXPECT_EQ(l.spacing(100, 100), 0);
  EXPECT_EQ(l.minSpacing(), 0);
}

TEST(Tech, LayerAndViaLookup) {
  const auto tech = test::makeTinyTech();
  ASSERT_NE(tech->findLayer("M1"), nullptr);
  ASSERT_NE(tech->findLayer("V1"), nullptr);
  EXPECT_EQ(tech->findLayer("M99"), nullptr);
  EXPECT_EQ(tech->numRoutingLayers(), 2);
  EXPECT_EQ(tech->routingLayerAbove(tech->findLayer("M1")->index),
            tech->findLayer("M2")->index);
  EXPECT_EQ(tech->routingLayerAbove(tech->findLayer("M2")->index), -1);

  const ViaDef* via = tech->findViaDef("V1_0");
  ASSERT_NE(via, nullptr);
  EXPECT_TRUE(via->isDefault);
  const auto vias = tech->viaDefsFromLayer(tech->findLayer("M1")->index);
  ASSERT_EQ(vias.size(), 1u);
  EXPECT_EQ(vias[0]->name, "V1_0");
  EXPECT_EQ(via->cutAt({100, 100}), geom::Rect(50, 50, 150, 150));
}

TEST(TrackPattern, OnTrackAndCoordsIn) {
  TrackPattern tp;
  tp.start = 200;
  tp.step = 400;
  tp.count = 10;
  EXPECT_TRUE(tp.onTrack(200));
  EXPECT_TRUE(tp.onTrack(600));
  EXPECT_FALSE(tp.onTrack(400));
  EXPECT_FALSE(tp.onTrack(100));   // before first track
  EXPECT_FALSE(tp.onTrack(4600));  // beyond count

  const auto cs = tp.coordsIn(500, 1500);
  EXPECT_EQ(cs, (std::vector<geom::Coord>{600, 1000, 1400}));
  EXPECT_TRUE(tp.coordsIn(4700, 9000).empty());
  // Query starting below the first track.
  EXPECT_EQ(tp.coordsIn(-1000, 250), (std::vector<geom::Coord>{200}));
}

TEST(Master, SignalPinIndices) {
  const auto td = test::makeTinyDesign(
      {{0, geom::Rect{100, 100, 200, 500}}});
  const Master* m = td.lib->findMaster("CELL");
  ASSERT_NE(m, nullptr);
  const auto sig = m->signalPinIndices();
  ASSERT_EQ(sig.size(), 1u);
  EXPECT_EQ(m->pins[sig[0]].name, "A");
  EXPECT_EQ(m->findPin("A"), &m->pins[sig[0]]);
  EXPECT_EQ(m->findPin("ZZZ"), nullptr);
}

TEST(Pin, ShapesOnLayerAndBbox) {
  Pin p;
  p.shapes = {{0, {0, 0, 10, 40}}, {0, {0, 0, 40, 10}}, {2, {5, 5, 6, 6}}};
  EXPECT_EQ(p.shapesOnLayer(0).size(), 2u);
  EXPECT_EQ(p.shapesOnLayer(1).size(), 0u);
  EXPECT_EQ(p.bbox(), geom::Rect(0, 0, 40, 40));
}

TEST(UniqueInst, SameSignatureShares) {
  auto td = test::makeTinyDesign({{0, geom::Rect{100, 100, 200, 500}}});
  Design& d = *td.design;
  const Master* m = td.lib->findMaster("CELL");
  // Second instance exactly one track period away in both axes: same offsets.
  d.instances.push_back({"u2", m, {400, 400}, geom::Orient::R0});
  // Third instance off-period: different x offset.
  d.instances.push_back({"u3", m, {600, 400}, geom::Orient::R0});
  // Fourth: same spot as u2 but mirrored: different orient.
  d.instances.push_back({"u4", m, {400, 400}, geom::Orient::MY});
  d.buildInstanceIndex();

  const UniqueInstances ui = UniqueInstanceIndex(d, 1).classes();
  EXPECT_EQ(ui.classes.size(), 3u);
  EXPECT_EQ(ui.classOf[0], ui.classOf[1]);
  EXPECT_NE(ui.classOf[0], ui.classOf[2]);
  EXPECT_NE(ui.classOf[1], ui.classOf[3]);
  // Representative is the first member.
  EXPECT_EQ(ui.classes[ui.classOf[0]].representative, 0);
  EXPECT_EQ(ui.classes[ui.classOf[0]].members.size(), 2u);
}

TEST(UniqueInst, TrackOffsets) {
  auto td = test::makeTinyDesign({{0, geom::Rect{100, 100, 200, 500}}});
  const Instance& inst = td.design->instances[0];
  const std::vector<geom::Coord> offs = trackOffsets(*td.design, inst);
  // 4 track patterns (M1/M2 x horizontal/vertical), origin (0,0), start 200,
  // step 400: offset = (0 - 200) mod 400 = 200.
  ASSERT_EQ(offs.size(), 4u);
  for (const geom::Coord o : offs) EXPECT_EQ(o, 200);
}

TEST(Design, InstanceNameIndexKeepsLastWinsThroughCopiesAndEdits) {
  auto td = test::makeTinyDesign({{0, geom::Rect{100, 100, 200, 500}}});
  Design& d = *td.design;
  const Master* m = td.lib->findMaster("CELL");
  for (int i = 0; i < 40; ++i) {
    d.instances.push_back({"v" + std::to_string(i), m, {0, 0}, {}});
  }
  d.instances.push_back({"v7", m, {0, 0}, {}});  // index 41
  d.buildInstanceIndex();
  EXPECT_EQ(d.findInstance("v7"), 41);
  EXPECT_EQ(d.findInstance("v39"), 40);
  // A view into a longer buffer: no terminator, no std::string.
  const std::string buf = "v12345";
  EXPECT_EQ(d.findInstance(std::string_view(buf).substr(0, 3)), 13);

  // A copy answers from its own instances, and edits to it leave the
  // original's index alone.
  Design copy = d;
  copy.instances[13].name = "renamed";
  copy.buildInstanceIndex();
  EXPECT_EQ(copy.findInstance("renamed"), 13);
  EXPECT_EQ(copy.findInstance("v12"), -1);
  EXPECT_EQ(d.findInstance("v12"), 13);

  EXPECT_EQ(d.addInstance({"v3", m, {0, 0}, {}}), 42);
  EXPECT_EQ(d.findInstance("v3"), 42);
  d.removeInstance(0);  // "u1"; later indices shift down by one
  EXPECT_EQ(d.findInstance("u1"), -1);
  EXPECT_EQ(d.findInstance("v3"), 41);
  EXPECT_EQ(d.findInstance("v7"), 40);
  EXPECT_EQ(d.findInstance("v0"), 0);
}

TEST(Design, FindInstanceAndTracks) {
  auto td = test::makeTinyDesign({{0, geom::Rect{100, 100, 200, 500}}});
  EXPECT_EQ(td.design->findInstance("u1"), 0);
  EXPECT_EQ(td.design->findInstance("nope"), -1);
  const int m1 = td.tech->findLayer("M1")->index;
  EXPECT_EQ(td.design->tracks(m1, Dir::kHorizontal).size(), 1u);
  EXPECT_EQ(td.design->tracks(m1, Dir::kVertical).size(), 1u);
  EXPECT_EQ(td.design->tracks(99, Dir::kVertical).size(), 0u);
}

TEST(Instance, BboxRespectsOrientation) {
  auto td = test::makeTinyDesign({{0, geom::Rect{100, 100, 200, 500}}});
  Instance inst = td.design->instances[0];
  inst.orient = geom::Orient::R90;
  EXPECT_EQ(inst.bbox(), geom::Rect(0, 0, 1200, 1200));  // square cell
  const Master* m = inst.master;
  EXPECT_EQ(m->bbox(), geom::Rect(0, 0, 1200, 1200));
}

TEST(Legality, CleanGeneratedPlacementPasses) {
  // Hand-built: two abutting cells on a row.
  auto td = test::makeTinyDesign({{0, geom::Rect{140, 300, 260, 900}}});
  Design& d = *td.design;
  d.rows.push_back({"ROW_0", "core", {0, 0}, geom::Orient::R0, 10, 1200,
                    1200});
  d.instances.push_back({"u2", td.lib->findMaster("CELL"), {1200, 0},
                         geom::Orient::R0});
  d.buildInstanceIndex();
  EXPECT_TRUE(checkPlacement(d).empty());
}

TEST(Legality, DetectsOverlapOffSiteOffDieAndNoRow) {
  auto td = test::makeTinyDesign({{0, geom::Rect{140, 300, 260, 900}}});
  Design& d = *td.design;
  d.rows.push_back({"ROW_0", "core", {0, 0}, geom::Orient::R0, 10, 1200,
                    1200});
  const Master* m = td.lib->findMaster("CELL");
  // Stacked on u1: overlap (and nothing else — same on-site origin).
  d.instances.push_back({"ovl", m, {0, 0}, geom::Orient::R0});
  // Misaligned x on the row: off-site.
  d.instances.push_back({"off", m, {2500, 0}, geom::Orient::R0});
  // y matches no row: no-row.
  d.instances.push_back({"row", m, {0, 77}, geom::Orient::R0});
  // bbox leaves the 4800x4800 die: off-die (also off-site; both fire).
  d.instances.push_back({"die", m, {4400, 0}, geom::Orient::R0});
  d.buildInstanceIndex();

  const auto violations = checkPlacement(d);
  int overlaps = 0, offSite = 0, noRow = 0, offDie = 0;
  for (const PlacementViolation& v : violations) {
    switch (v.kind) {
      case PlacementViolation::Kind::kOverlap: ++overlaps; break;
      case PlacementViolation::Kind::kOffSite: ++offSite; break;
      case PlacementViolation::Kind::kNoRow: ++noRow; break;
      case PlacementViolation::Kind::kOffDie: ++offDie; break;
    }
    EXPECT_FALSE(v.describe(d).empty());
  }
  // "ovl" overlaps only u1; "row" overlaps u1/ovl too (same x span) so just
  // require each kind to have fired and overlaps to include the planted one.
  EXPECT_GE(overlaps, 1);
  EXPECT_GE(offSite, 1);
  EXPECT_EQ(noRow, 1);
  EXPECT_EQ(offDie, 1);
}

TEST(Legality, RowLookupTakesTheFirstRowAtEachY) {
  // Rows out of y order, two of them at y = 1200 with different x origins,
  // and a double-height cell. An instance is checked against the FIRST row
  // in design order at its origin y (ROW_A), so "shift" is off-site even
  // though ROW_B's grid would accept it.
  auto td = test::makeTinyDesign({{0, geom::Rect{140, 300, 260, 900}}});
  Design& d = *td.design;
  d.rows.push_back({"ROW_A", "core", {0, 1200}, geom::Orient::R0, 4, 1200,
                    1200});
  d.rows.push_back({"ROW_0", "core", {0, 0}, geom::Orient::R0, 4, 1200,
                    1200});
  d.rows.push_back({"ROW_B", "core", {100, 1200}, geom::Orient::R0, 3, 1200,
                    1200});
  const Master* m = td.lib->findMaster("CELL");
  Master& tall = td.lib->addMaster("TALL");
  tall.width = 1200;
  tall.height = 2400;
  d.instances.push_back({"shift", m, {100, 1200}, geom::Orient::R0});
  d.instances.push_back({"tall", &tall, {2400, 0}, geom::Orient::R0});
  d.instances.push_back({"upper", m, {3600, 1200}, geom::Orient::R0});
  d.instances.push_back({"norow", m, {0, 3000}, geom::Orient::R0});
  d.buildInstanceIndex();

  const auto violations = checkPlacement(d);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].kind, PlacementViolation::Kind::kOffSite);
  EXPECT_EQ(violations[0].instA, 1);
  EXPECT_EQ(violations[1].kind, PlacementViolation::Kind::kNoRow);
  EXPECT_EQ(violations[1].instA, 4);
}

// The RowIndex sweep reports exactly the overlapping pairs an O(n^2) scan
// finds, in the canonical order: instance i ascending, then the earlier
// instances j < i it overlaps, ascending. Seeded moves stack cells on top
// of others, on and off the rows; a double-height cell and a block spanning
// several rows sit over the placement.
TEST(Legality, OverlapsMatchBruteForce) {
  struct Case {
    benchgen::TestcaseSpec spec;
    double scale;
  };
  for (const Case& c : {Case{benchgen::mixedSpec(), 0.02},
                        Case{benchgen::aes14Spec(), 0.05}}) {
    SCOPED_TRACE(c.spec.name);
    benchgen::Testcase tc = benchgen::generate(c.spec, c.scale);
    Design& d = *tc.design;
    ASSERT_GE(d.rows.size(), 4u);
    const Row& row = d.rows[d.rows.size() / 2];
    Master& tall = tc.lib->addMaster("LEGALITY_DOUBLE");
    tall.width = 4 * row.siteWidth;
    tall.height = 2 * row.height;
    Master& block = tc.lib->addMaster("LEGALITY_BLOCK");
    block.cls = MasterClass::kBlock;
    block.width = 40 * row.siteWidth;
    block.height = 3 * row.height + 7;
    d.instances.push_back({"tall", &tall,
                           {row.origin.x + 9 * row.siteWidth, row.origin.y},
                           geom::Orient::R0});
    d.instances.push_back({"block", &block,
                           {row.origin.x + 5 * row.siteWidth + 3,
                            row.origin.y - row.height / 2},
                           geom::Orient::R0});

    std::uint64_t state = 17;
    const auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return state >> 17;
    };
    const std::size_t n = d.instances.size();
    for (int k = 0; k < 60; ++k) {
      Instance& moved = d.instances[next() % n];
      const Instance& onto = d.instances[next() % n];
      const geom::Coord dx = static_cast<geom::Coord>(next() % 9) * 50 - 200;
      const bool offRow = next() % 2 == 0;
      const geom::Coord dy =
          offRow ? static_cast<geom::Coord>(next() % 9) * 50 - 200 : 0;
      moved.origin = {onto.origin.x + dx, onto.origin.y + dy};
      if (next() % 4 == 0) moved.orient = geom::Orient::R90;
    }

    std::vector<std::pair<int, int>> want;
    for (int i = 0; i < static_cast<int>(n); ++i) {
      for (int j = 0; j < i; ++j) {
        if (d.instances[j].bbox().overlaps(d.instances[i].bbox())) {
          want.emplace_back(j, i);
        }
      }
    }
    std::vector<std::pair<int, int>> got;
    for (const PlacementViolation& v : checkPlacement(d)) {
      if (v.kind == PlacementViolation::Kind::kOverlap) {
        got.emplace_back(v.instA, v.instB);
      }
    }
    EXPECT_GT(want.size(), 60u);
    EXPECT_EQ(got, want);
  }
}

}  // namespace
}  // namespace pao::db
