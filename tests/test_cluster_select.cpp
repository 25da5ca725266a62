#include "pao/cluster_select.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "pao/access_cache.hpp"
#include "pao/ap_gen.hpp"
#include "pao/oracle.hpp"
#include "pao/pattern_gen.hpp"
#include "pao/session.hpp"
#include "reference.hpp"
#include "test_util.hpp"
#include "util/jobs.hpp"

namespace pao::core {
namespace {

using geom::Point;
using geom::Rect;

/// Step 3 the way OracleSession schedules it, serially: the design's
/// clusters, their abutment keys, then selectCluster over every cluster in
/// order. Adds the DPs' pair checks to `pairChecks` when given.
std::vector<int> selectAll(ClusterSelector& sel, const db::Design& design,
                           std::size_t* pairChecks = nullptr) {
  const std::vector<std::vector<int>> clusters =
      reference::buildClusters(design);
  sel.addPairKeys(clusters);
  std::vector<int> chosen(design.instances.size(), -1);
  for (const std::vector<int>& cluster : clusters) {
    const ClusterTally tally = sel.selectCluster(cluster, chosen);
    if (pairChecks != nullptr) *pairChecks += tally.pairChecks;
  }
  return chosen;
}

/// Steps 1-2 of class `c`, normalized to the origin-relative frame every
/// ClassAccess consumer expects (as OracleSession does after Step 2).
ClassAccess analyzeClass(const db::Design& d, const db::UniqueInstance& ui,
                         PatternGenConfig cfg = {}) {
  const InstContext ctx(d, ui);
  ClassAccess ca;
  ca.pinAps = AccessPointGenerator(ctx).generateAll();
  PatternGenerator gen(ctx, ca.pinAps, cfg);
  ca.patterns = gen.run();
  ca.pinOrder = gen.pinOrder();
  return AccessCache::translate(
      ca, Point{0, 0} - d.instances[ui.representative].origin);
}

/// One pattern of handAccess: the index of pin A's and pin Z's access
/// point, and the pattern's cost.
struct HandPattern {
  int a = 0;
  int z = 0;
  long long cost = 0;
};

/// Hand-placed access for a master whose signal pins are A (a bar at x
/// 150-250) and Z (a bar at x 1010-1110), in that order: one up-via access
/// point per listed y, and one pattern per HandPattern. Across a shared
/// edge, a Z via and the right neighbour's A via conflict at the same y and
/// are compatible 400 apart.
ClassAccess handAccess(const std::vector<geom::Coord>& aYs,
                       const std::vector<geom::Coord>& zYs,
                       const std::vector<HandPattern>& patterns) {
  const auto up = [](Point loc) {
    AccessPoint ap;
    ap.loc = loc;
    ap.layer = 0;
    ap.dirs = kUp;
    ap.viaIdx.push_back(0);
    return ap;
  };
  ClassAccess ca;
  ca.pinAps.resize(2);
  for (const geom::Coord y : aYs) ca.pinAps[0].push_back(up({200, y}));
  for (const geom::Coord y : zYs) ca.pinAps[1].push_back(up({1060, y}));
  ca.pinOrder = {0, 1};
  for (const HandPattern& hp : patterns) {
    AccessPattern pat;
    pat.apIdx = {hp.a, hp.z};
    pat.cost = hp.cost;
    ca.patterns.push_back(pat);
  }
  return ca;
}

/// A cell whose boundary pins sit close enough to the edges that two
/// abutting instances' same-y boundary vias conflict, while staggered-y
/// choices are compatible: pin A near the left edge, pin Z near the right.
/// (Tiny tech: cell 1200 wide, enclosure reach 150+50, spacing 100.)
class ClusterFixture : public ::testing::Test {
 protected:
  void buildDesign(const std::vector<Point>& origins,
                   int numPatterns = 3) {
    td_ = test::makeTinyDesign({{0, Rect{150, 300, 250, 1100}}});
    db::Master* m = const_cast<db::Master*>(td_.lib->findMaster("CELL"));
    m->pins[0].shapes[0].rect = Rect{150, 300, 250, 1100};  // A, left
    db::Pin& z = m->pins.emplace_back();
    z.name = "Z";
    z.use = db::PinUse::kSignal;
    z.shapes.push_back({0, Rect{1010, 300, 1110, 1100}});  // near right edge

    db::Design& d = *td_.design;
    d.instances.clear();
    for (std::size_t i = 0; i < origins.size(); ++i) {
      db::Instance inst;
      inst.name = "u" + std::to_string(i);
      inst.master = m;
      inst.origin = origins[i];
      inst.orient = geom::Orient::R0;
      d.instances.push_back(inst);
    }
    d.buildInstanceIndex();

    unique_ = db::UniqueInstanceIndex(d, 1).classes();
    classes_.clear();
    classes_.resize(unique_.classes.size());
    for (std::size_t c = 0; c < unique_.classes.size(); ++c) {
      PatternGenConfig cfg;
      cfg.numPatterns = numPatterns;
      classes_[c] = analyzeClass(d, unique_.classes[c], cfg);
    }
  }

  test::TinyDesign td_;
  db::UniqueInstances unique_;
  std::vector<ClassAccess> classes_;
};

TEST_F(ClusterFixture, ClustersSplitAtGaps) {
  buildDesign({{0, 0}, {1200, 0}, {3600, 0}, {0, 1200}});
  const std::vector<std::vector<int>> clusters =
      reference::buildClusters(*td_.design);
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(clusters[1], (std::vector<int>{2}));
  EXPECT_EQ(clusters[2], (std::vector<int>{3}));
}

TEST(BuildClusters, MultiHeightCellJoinsEveryRowItCovers) {
  // Instance order is scrambled on purpose: clusters come out rows
  // bottom-up, runs left to right, regardless of insertion order.
  test::TinyDesign td = test::makeTinyDesign({{0, Rect{150, 300, 250, 1100}}});
  const db::Master* cell = td.lib->findMaster("CELL");
  db::Master& tall = td.lib->addMaster("TALL");
  tall.width = 1200;
  tall.height = 2400;
  db::Design& d = *td.design;
  d.instances.clear();
  const auto place = [&](const char* name, const db::Master* m, Point at) {
    d.instances.push_back({name, m, at, geom::Orient::R0});
  };
  place("u5", cell, {4800, 1200});  // 0
  place("t", &tall, {1200, 0});     // 1: rows 0 and 1200
  place("u3", cell, {0, 1200});     // 2
  place("u0", cell, {0, 0});        // 3
  place("u4", cell, {2400, 1200});  // 4
  place("u2", cell, {2400, 0});     // 5
  d.buildInstanceIndex();

  const std::vector<std::vector<int>> clusters = reference::buildClusters(d);
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0], (std::vector<int>{3, 1, 5}));
  EXPECT_EQ(clusters[1], (std::vector<int>{2, 1, 4}));
  EXPECT_EQ(clusters[2], (std::vector<int>{0}));
}

// Instances at the same origin x are ordered by index, so a row's runs do
// not depend on how a sort happened to leave them. Here the order matters:
// the wide cell first ends the run at its right edge, the narrow one
// second ends it earlier, so the next cell starts a new run. A serve move
// onto an occupied site creates exactly this, and the session must agree
// with a batch run on it.
TEST(BuildClusters, CoincidentOriginsKeepIndexOrder) {
  test::TinyDesign td = test::makeTinyDesign({{0, Rect{150, 300, 250, 1100}}});
  const db::Master* cell = td.lib->findMaster("CELL");
  db::Master& wide = td.lib->addMaster("WIDE");
  wide.width = 2400;
  wide.height = 1200;
  wide.pins = cell->pins;
  db::Master& tall = td.lib->addMaster("TALL");
  tall.width = 1200;
  tall.height = 2400;
  tall.pins = cell->pins;
  db::Design& d = *td.design;
  d.instances.clear();
  const auto place = [&](const char* name, const db::Master* m, Point at) {
    d.instances.push_back({name, m, at, geom::Orient::R0});
  };
  place("w", &wide, {0, 0});     // 0
  place("a", cell, {4800, 0});   // 1: moved onto w's origin below
  place("b", cell, {2400, 0});   // 2
  place("t", &tall, {2400, 0});  // 3: over b, rows 0 and 1200
  place("c", cell, {2400, 1200});  // 4: coincident with t's upper half
  d.buildInstanceIndex();

  const OracleConfig cfg = withBcaConfig();
  OracleSession session(d, cfg);
  session.moveInstance(1, {0, 0});

  const std::vector<std::vector<int>> clusters = reference::buildClusters(d);
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(clusters[1], (std::vector<int>{2, 3}));
  EXPECT_EQ(clusters[2], (std::vector<int>{3, 4}));
  EXPECT_EQ(session.stats().lastClusterCount, clusters.size());
  PinAccessOracle batch(d, cfg);
  EXPECT_EQ(session.chosenPattern(), batch.run().chosenPattern);
}

TEST_F(ClusterFixture, EveryInstanceGetsAPattern) {
  buildDesign({{0, 0}, {1200, 0}, {2400, 0}});
  ClusterSelector sel(*td_.design, unique_, classes_);
  const std::vector<int> chosen = selectAll(sel, *td_.design);
  ASSERT_EQ(chosen.size(), 3u);
  for (const int c : chosen) EXPECT_GE(c, 0);
}

TEST_F(ClusterFixture, AbuttingInstancesChooseCompatiblePatterns) {
  buildDesign({{0, 0}, {1200, 0}});
  ClusterSelector sel(*td_.design, unique_, classes_);
  const std::vector<int> chosen = selectAll(sel, *td_.design);

  // Verify the selection with an independent DRC check of the facing vias.
  const ClassAccess& ca = classes_[unique_.classOf[0]];
  const int rightPin = ca.pinOrder.back();
  const int leftPin = ca.pinOrder.front();
  const int apR = ca.patterns[chosen[0]].apIdx[rightPin];
  const int apL = ca.patterns[chosen[1]].apIdx[leftPin];
  ASSERT_GE(apR, 0);
  ASSERT_GE(apL, 0);
  const AccessPoint& right = ca.pinAps[rightPin][apR];
  const AccessPoint& left = ca.pinAps[leftPin][apL];

  // Class access is origin-relative: u0 sits at (0, 0), u1 at (1200, 0).
  drc::DrcEngine engine(*td_.tech);
  const Point rightLoc = right.loc + td_.design->instances[0].origin;
  const Point leftLoc = left.loc + td_.design->instances[1].origin;
  EXPECT_TRUE(engine
                  .checkViaPair(*right.primaryVia(*td_.tech), rightLoc, 1,
                                *left.primaryVia(*td_.tech), leftLoc, 2)
                  .empty())
      << "selected boundary vias conflict: " << rightLoc << " vs "
      << leftLoc;
}

TEST_F(ClusterFixture, SinglePatternModeStillSelects) {
  buildDesign({{0, 0}, {1200, 0}}, /*numPatterns=*/1);
  ClusterSelector sel(*td_.design, unique_, classes_);
  const std::vector<int> chosen = selectAll(sel, *td_.design);
  EXPECT_EQ(chosen[0], 0);
  EXPECT_EQ(chosen[1], 0);
}

TEST_F(ClusterFixture, PairChecksAreMemoizedAcrossRepeats) {
  // A 20-instance abutting row has 19 abutments but one abutment key (same
  // class, same offset): each entry of its verdict slot is probed once, so
  // the row costs exactly the pair checks of a lone abutting pair.
  buildDesign({{0, 0}, {1200, 0}});
  ClusterSelector pair(*td_.design, unique_, classes_);
  std::size_t pairChecks = 0;
  selectAll(pair, *td_.design, &pairChecks);
  EXPECT_GT(pairChecks, 0u);
  EXPECT_LE(pairChecks, 2u * 9u);  // 3x3 pattern combos, both directions

  std::vector<Point> origins;
  for (int i = 0; i < 20; ++i) origins.push_back({i * 1200, 0});
  buildDesign(origins);
  ClusterSelector row(*td_.design, unique_, classes_);
  std::size_t rowChecks = 0;
  selectAll(row, *td_.design, &rowChecks);
  EXPECT_EQ(rowChecks, pairChecks);
}

TEST_F(ClusterFixture, FillersAreTransparent) {
  buildDesign({{0, 0}, {1200, 0}});
  // Insert a pattern-less filler class between the two cells by giving the
  // design a third instance of a pinless master.
  db::Library fillLib;
  db::Master& filler = fillLib.addMaster("FILL");
  filler.width = 600;
  filler.height = 1200;
  db::Instance inst;
  inst.name = "fill0";
  inst.master = &filler;
  inst.origin = {2400, 0};
  td_.design->instances.push_back(inst);
  td_.design->buildInstanceIndex();
  unique_ = db::UniqueInstanceIndex(*td_.design, 1).classes();
  // Rebuild class access for the new class layout: the filler class gets no
  // patterns.
  std::vector<ClassAccess> classes(unique_.classes.size());
  for (std::size_t c = 0; c < unique_.classes.size(); ++c) {
    if (unique_.classes[c].master->signalPinIndices().empty()) continue;
    classes[c] = analyzeClass(*td_.design, unique_.classes[c]);
  }
  ClusterSelector sel(*td_.design, unique_, classes);
  const std::vector<int> chosen = selectAll(sel, *td_.design);
  EXPECT_GE(chosen[0], 0);
  EXPECT_GE(chosen[1], 0);
  EXPECT_EQ(chosen[2], -1);  // filler has no pattern
}

TEST_F(ClusterFixture, NegativeDrcCostIsRejected) {
  // The DP's bound reads a pair's cost without the penalty as a lower
  // bound, which a negative penalty would break.
  buildDesign({{0, 0}, {1200, 0}});
  ClusterSelectConfig cfg;
  cfg.drcCost = -1;
  EXPECT_THROW(ClusterSelector(*td_.design, unique_, classes_, cfg),
               std::invalid_argument);
  cfg.drcCost = 0;
  EXPECT_NO_THROW(ClusterSelector(*td_.design, unique_, classes_, cfg));
}

TEST_F(ClusterFixture, BoundWalksPastADirtyCheapestPredecessor) {
  // u0's cheapest pattern puts its Z via at y 500, level with u1's A via in
  // every pattern: dirty against all of u1's patterns. The walk must go on
  // to u0's dearer pattern 1 (Z at y 900), which is clean.
  buildDesign({{0, 0}, {1200, 0}});
  ASSERT_EQ(classes_.size(), 1u);
  classes_[0] = handAccess({500}, {500, 900}, {{0, 0, 0}, {0, 1, 10}});
  ClusterSelector sel(*td_.design, unique_, classes_);
  const std::vector<int> chosen = selectAll(sel, *td_.design);
  EXPECT_EQ(chosen, (std::vector<int>{1, 0}));
  EXPECT_EQ(chosen,
            reference::selectClusters(*td_.design, unique_, classes_)
                .chosenPattern);
}

TEST_F(ClusterFixture, EqualValuesTakeTheLowestPredecessorIndex) {
  // With drcCost 10, u0's dirty pattern 1 (cost 0) and its clean patterns
  // 0 and 2 (cost 10 each) reach u1 at the same value. The walk meets
  // pattern 1 first, yet the lowest index, 0, must win: a bound that
  // ties the best value at a lower index is still probed, one at a higher
  // index is not.
  buildDesign({{0, 0}, {1200, 0}});
  ASSERT_EQ(classes_.size(), 1u);
  classes_[0] = handAccess({500}, {500, 900},
                           {{0, 1, 10}, {0, 0, 0}, {0, 1, 10}});
  ClusterSelectConfig cfg;
  cfg.drcCost = 10;
  ClusterSelector sel(*td_.design, unique_, classes_, cfg);
  const std::vector<int> chosen = selectAll(sel, *td_.design);
  EXPECT_EQ(chosen, (std::vector<int>{0, 1}));
  EXPECT_EQ(chosen,
            reference::selectClusters(*td_.design, unique_, classes_, cfg)
                .chosenPattern);
}

TEST_F(ClusterFixture, PinnedMultiHeightPredecessorKeepsItsPattern) {
  // t spans rows 0 and 1200. Row 0 ([u0, t]) pins t's pattern 0, whose Z
  // via sits level with u1's cheap A via in row 1 ([t, u1]); the row-1 DP
  // must keep t's pinned pattern and move u1 to its dearer pattern, though
  // t's pattern 1 with u1's pattern 0 would cost less.
  buildDesign({{0, 0}, {2400, 1200}});
  db::Master& tall = td_.lib->addMaster("TALL");
  tall.width = 1200;
  tall.height = 2400;
  for (const auto& [name, bar] :
       {std::pair{"A", Rect{150, 300, 250, 1100}},
        std::pair{"Z", Rect{1010, 1500, 1110, 2300}}}) {
    db::Pin& pin = tall.pins.emplace_back();
    pin.name = name;
    pin.use = db::PinUse::kSignal;
    pin.shapes.push_back({0, bar});
  }
  db::Design& d = *td_.design;
  d.instances.push_back({"t", &tall, {1200, 0}, geom::Orient::R0});
  d.buildInstanceIndex();
  unique_ = db::UniqueInstanceIndex(d, 1).classes();
  classes_.assign(unique_.classes.size(), {});
  for (std::size_t c = 0; c < unique_.classes.size(); ++c) {
    classes_[c] = unique_.classes[c].master == &tall
                      ? handAccess({500, 900}, {1700, 2100},
                                   {{1, 0, 0}, {0, 1, 5}})
                      : handAccess({500, 900}, {500, 900},
                                   {{0, 0, 0}, {1, 1, 10}});
  }
  const std::vector<std::vector<int>> clusters = reference::buildClusters(d);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[1], (std::vector<int>{2, 1}));
  ClusterSelector sel(d, unique_, classes_);
  const std::vector<int> chosen = selectAll(sel, d);
  EXPECT_EQ(chosen, (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(chosen,
            reference::selectClusters(d, unique_, classes_).chosenPattern);
}

TEST_F(ClusterFixture, ConcurrentFirstProbesMatchSerial) {
  // Sixteen instance-disjoint two-cell clusters share one abutment key, so
  // DPs on four threads race to probe the same verdict entries. Each entry
  // is published once, by one DP, which alone counts its probes: the
  // choices and the summed pair checks equal a serial run's.
  std::vector<Point> origins;
  for (int row = 0; row < 8; ++row) {
    for (const int x : {0, 1200, 3600, 4800}) origins.push_back({x, row * 1200});
  }
  buildDesign(origins);
  const std::vector<std::vector<int>> clusters =
      reference::buildClusters(*td_.design);
  ASSERT_EQ(clusters.size(), 16u);
  ClusterSelector serial(*td_.design, unique_, classes_);
  std::size_t serialChecks = 0;
  const std::vector<int> want = selectAll(serial, *td_.design, &serialChecks);
  ASSERT_GT(serialChecks, 0u);
  for (int round = 0; round < 4; ++round) {
    ClusterSelector sel(*td_.design, unique_, classes_);
    sel.addPairKeys(clusters);
    std::vector<int> chosen(origins.size(), -1);
    std::vector<ClusterTally> tallies(clusters.size());
    util::parallelFor(
        clusters.size(),
        [&](std::size_t k) {
          tallies[k] = sel.selectCluster(clusters[k], chosen);
        },
        4);
    std::size_t checks = 0;
    for (const ClusterTally& t : tallies) checks += t.pairChecks;
    EXPECT_EQ(chosen, want);
    EXPECT_EQ(checks, serialChecks);
  }
}

TEST(ClusterSelectNets, PinsPastSixtyFourDoNotAliasTheNeighbour) {
  // A 65-pin master: pin 0 is a bar near the left edge, pin 64 a bar near
  // the right edge, pins 1-63 pad the index. Two abutting instances share
  // one class; u0's right boundary AP sits on pin 64, u1's left one on pin
  // 0. Pattern 0 (cheaper) puts u1's pin-0 via at u0's pin-64 via height,
  // which violates M1 spacing across the boundary; pattern 1 staggers it.
  // Net ids that fold instance and pin as inst * 64 + pin would give u0's
  // pin 64 and u1's pin 0 the same id, and the conflict would pass as a
  // same-net merge.
  test::TinyDesign td = test::makeTinyDesign({{0, Rect{150, 300, 250, 1100}}});
  db::Master* m = const_cast<db::Master*>(td.lib->findMaster("CELL"));
  for (int p = 1; p <= 64; ++p) {
    db::Pin& pin = m->pins.emplace_back();
    pin.name = "P" + std::to_string(p);
    pin.use = db::PinUse::kSignal;
  }
  m->pins[64].shapes.push_back({0, Rect{1010, 300, 1110, 1100}});
  db::Design& d = *td.design;
  db::Instance second = d.instances[0];
  second.name = "u2";
  second.origin = {1200, 0};
  d.instances.push_back(second);
  d.buildInstanceIndex();

  const db::UniqueInstances unique = db::UniqueInstanceIndex(d, 1).classes();
  ASSERT_EQ(unique.classes.size(), 1u);
  const auto ap = [](Point loc) {
    AccessPoint a;
    a.loc = loc;
    a.layer = 0;
    a.dirs = kUp;
    a.viaIdx.push_back(0);
    return a;
  };
  std::vector<ClassAccess> classes(1);
  ClassAccess& ca = classes[0];
  ca.pinAps.resize(65);
  ca.pinAps[0] = {ap({200, 500}), ap({200, 900})};
  ca.pinAps[64] = {ap({1060, 500})};
  ca.pinOrder = {0, 64};
  for (const int pin0Ap : {0, 1}) {
    AccessPattern pat;
    pat.apIdx.assign(65, -1);
    pat.apIdx[0] = pin0Ap;
    pat.apIdx[64] = 0;
    pat.cost = pin0Ap * 10;
    ca.patterns.push_back(pat);
  }

  ClusterSelector sel(d, unique, classes);
  ASSERT_EQ(reference::buildClusters(d).size(), 1u);
  const std::vector<int> chosen = selectAll(sel, d);
  EXPECT_EQ(chosen[0], 0);
  EXPECT_EQ(chosen[1], 1) << "the conflicting boundary via was accepted";
}

}  // namespace
}  // namespace pao::core
