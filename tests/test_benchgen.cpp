#include <gtest/gtest.h>

#include <set>

#include "benchgen/testcase.hpp"
#include "db/legality.hpp"
#include "db/unique_inst.hpp"

namespace pao::benchgen {
namespace {

TEST(TechGen, NodesHaveNineRoutingLayers) {
  for (const Node node : {Node::k45, Node::k32, Node::k14}) {
    const auto tech = makeTech(nodeParams(node));
    EXPECT_EQ(tech->numRoutingLayers(), 9);
    // 8 cut layers, 2 via defs each.
    EXPECT_EQ(tech->viaDefs().size(), 16u);
    for (const db::ViaDef& v : tech->viaDefs()) {
      EXPECT_GE(v.botLayer, 0);
      EXPECT_GE(v.cutLayer, 0);
      EXPECT_GE(v.topLayer, 0);
      EXPECT_LT(v.botLayer, v.cutLayer);
      EXPECT_LT(v.cutLayer, v.topLayer);
      EXPECT_FALSE(v.cut.empty());
    }
  }
}

TEST(TechGen, DirectionsAlternate) {
  const auto t45 = makeTech(nodeParams(Node::k45));
  EXPECT_EQ(t45->findLayer("M1")->dir, db::Dir::kHorizontal);
  EXPECT_EQ(t45->findLayer("M2")->dir, db::Dir::kVertical);
  EXPECT_EQ(t45->findLayer("M3")->dir, db::Dir::kHorizontal);
  // 14nm flips: unidirectional vertical M1.
  const auto t14 = makeTech(nodeParams(Node::k14));
  EXPECT_EQ(t14->findLayer("M1")->dir, db::Dir::kVertical);
  EXPECT_EQ(t14->findLayer("M2")->dir, db::Dir::kHorizontal);
}

TEST(LibGen, MastersAreWellFormed) {
  const NodeParams node = nodeParams(Node::k45);
  const auto tech = makeTech(node);
  LibParams lp;
  lp.node = node;
  lp.siteWidth = 190;
  lp.withMacro = true;
  const auto lib = makeLibrary(lp, *tech);
  EXPECT_GT(lib->masters().size(), 10u);

  const geom::Coord height = cellHeight(node);
  bool sawFiller = false;
  bool sawMacro = false;
  for (const auto& mp : lib->masters()) {
    const db::Master& m = *mp;
    EXPECT_GT(m.width, 0);
    if (m.cls == db::MasterClass::kFiller) {
      sawFiller = true;
      EXPECT_TRUE(m.signalPinIndices().empty());
      continue;
    }
    if (m.cls == db::MasterClass::kBlock) {
      sawMacro = true;
      continue;
    }
    EXPECT_EQ(m.height, height) << m.name;
    EXPECT_EQ(m.width % lp.siteWidth, 0) << m.name;
    // Rails + at least 2 signal pins; every shape inside the cell bbox.
    EXPECT_GE(m.pins.size(), 4u) << m.name;
    EXPECT_FALSE(m.signalPinIndices().empty()) << m.name;
    for (const db::Pin& p : m.pins) {
      for (const db::PinShape& s : p.shapes) {
        EXPECT_TRUE(m.bbox().contains(s.rect))
            << m.name << " pin " << p.name;
      }
    }
    // Signal pins do not overlap each other or obstructions.
    for (const int i : m.signalPinIndices()) {
      for (const int j : m.signalPinIndices()) {
        if (i >= j) continue;
        for (const db::PinShape& a : m.pins[i].shapes) {
          for (const db::PinShape& b : m.pins[j].shapes) {
            if (a.layer != b.layer) continue;
            EXPECT_FALSE(a.rect.overlaps(b.rect))
                << m.name << " " << m.pins[i].name << "/" << m.pins[j].name;
          }
        }
      }
      for (const db::PinShape& a : m.pins[i].shapes) {
        for (const db::Obstruction& o : m.obstructions) {
          if (a.layer != o.layer) continue;
          EXPECT_FALSE(a.rect.overlaps(o.rect)) << m.name;
        }
      }
    }
  }
  EXPECT_TRUE(sawFiller);
  EXPECT_TRUE(sawMacro);
}

TEST(Testcase, GenerateIsDeterministic) {
  const TestcaseSpec spec = ispd18Suite()[0];
  const Testcase a = generate(spec, 0.01);
  const Testcase b = generate(spec, 0.01);
  ASSERT_EQ(a.design->instances.size(), b.design->instances.size());
  for (std::size_t i = 0; i < a.design->instances.size(); ++i) {
    EXPECT_EQ(a.design->instances[i].name, b.design->instances[i].name);
    EXPECT_EQ(a.design->instances[i].origin, b.design->instances[i].origin);
    EXPECT_EQ(a.design->instances[i].orient, b.design->instances[i].orient);
  }
  ASSERT_EQ(a.design->nets.size(), b.design->nets.size());
}

TEST(Testcase, ScaleShrinksCounts) {
  const TestcaseSpec spec = ispd18Suite()[0];
  const Testcase small = generate(spec, 0.01);
  const Testcase bigger = generate(spec, 0.03);
  EXPECT_LT(small.design->instances.size(), bigger.design->instances.size());
  EXPECT_LT(small.design->nets.size(), bigger.design->nets.size());
}

TEST(Testcase, PlacementIsLegal) {
  const Testcase tc = generate(ispd18Suite()[1], 0.01);
  for (const db::PlacementViolation& v : db::checkPlacement(*tc.design)) {
    ADD_FAILURE() << v.describe(*tc.design);
  }
}

TEST(Testcase, NetsAreSane) {
  const Testcase tc = generate(ispd18Suite()[0], 0.02);
  std::set<std::pair<int, int>> seen;
  for (const db::Net& net : tc.design->nets) {
    EXPECT_GE(net.terms.size(), 2u) << net.name;
    for (const db::NetTerm& t : net.terms) {
      if (t.isIo()) {
        EXPECT_GE(t.ioPinIdx, 0);
        continue;
      }
      // A pin belongs to at most one net.
      EXPECT_TRUE(seen.insert({t.instIdx, t.pinIdx}).second)
          << net.name << " reuses a pin";
      const db::Instance& inst = tc.design->instances[t.instIdx];
      ASSERT_LT(t.pinIdx, static_cast<int>(inst.master->pins.size()));
    }
  }
}

TEST(Testcase, TrackPatternsCoverAllRoutingLayers) {
  const Testcase tc = generate(ispd18Suite()[0], 0.01);
  for (const db::Layer& l : tc.tech->layers()) {
    if (l.type != db::LayerType::kRouting) continue;
    EXPECT_FALSE(tc.design->tracks(l.index, db::Dir::kHorizontal).empty());
    EXPECT_FALSE(tc.design->tracks(l.index, db::Dir::kVertical).empty());
  }
}

TEST(Testcase, UniqueInstanceCountsScaleWithSuite) {
  // test1 (45nm) should produce on the order of 100-300 unique instances
  // even at tiny scale (class structure is placement-offset driven, not
  // count driven).
  const Testcase t1 = generate(ispd18Suite()[0], 0.02);
  const auto u1 = db::UniqueInstanceIndex(*t1.design, 1).classes();
  EXPECT_GE(u1.classes.size(), 50u);
  EXPECT_LE(u1.classes.size(), 400u);
}

TEST(Testcase, MacroTestcaseHasBlocks) {
  const Testcase tc = generate(ispd18Suite()[2], 0.01);  // test3: 4 macros
  int macros = 0;
  for (const db::Instance& inst : tc.design->instances) {
    if (inst.master->cls == db::MasterClass::kBlock) ++macros;
  }
  EXPECT_GT(macros, 0);
}

TEST(Testcase, Aes14Preset) {
  const TestcaseSpec spec = aes14Spec();
  EXPECT_EQ(spec.node, Node::k14);
  const Testcase tc = generate(spec, 0.01);
  EXPECT_GT(tc.design->instances.size(), 100u);
  EXPECT_EQ(tc.tech->name, "synth14");
}

}  // namespace
}  // namespace pao::benchgen
