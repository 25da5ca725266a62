#include "router/router.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchgen/testcase.hpp"
#include "lefdef/def_route_writer.hpp"
#include "pao/evaluate.hpp"
#include "test_util.hpp"

namespace pao::router {
namespace {

TEST(RoutingGrid, CoordinateSetsComeFromTracks) {
  auto td = test::makeTinyDesign({{0, geom::Rect{140, 300, 260, 900}}});
  RoutingGrid grid(*td.design);
  // Tiny design: tracks at 200 + k*400, 12 per axis.
  ASSERT_EQ(grid.xs().size(), 12u);
  ASSERT_EQ(grid.ys().size(), 12u);
  EXPECT_EQ(grid.xs()[0], 200);
  EXPECT_EQ(grid.ys()[1], 600);
}

TEST(RoutingGrid, ValidityFollowsLayerTracks) {
  auto td = test::makeTinyDesign({{0, geom::Rect{140, 300, 260, 900}}});
  RoutingGrid grid(*td.design);
  const int m1 = td.tech->findLayer("M1")->index;
  const int m2 = td.tech->findLayer("M2")->index;
  const int v1 = td.tech->findLayer("V1")->index;
  EXPECT_TRUE(grid.valid({m1, 0, 0}));
  EXPECT_TRUE(grid.valid({m2, 3, 7}));
  EXPECT_FALSE(grid.valid({v1, 0, 0}));  // cut layer has no nodes
  EXPECT_FALSE(grid.valid({m1, -1, 0}));
  EXPECT_FALSE(grid.valid({m1, 0, 99}));
}

TEST(RoutingGrid, SnapFindsNearestNode) {
  auto td = test::makeTinyDesign({{0, geom::Rect{140, 300, 260, 900}}});
  RoutingGrid grid(*td.design);
  const int m1 = td.tech->findLayer("M1")->index;
  const Node n = grid.snap(m1, {390, 810});
  EXPECT_TRUE(grid.valid(n));
  EXPECT_EQ(grid.pointOf(n), geom::Point(200, 1000));
}

TEST(RoutingGrid, OccupancyAndBlocking) {
  auto td = test::makeTinyDesign({{0, geom::Rect{140, 300, 260, 900}}});
  RoutingGrid grid(*td.design);
  const int m1 = td.tech->findLayer("M1")->index;
  const Node n{m1, 2, 2};
  EXPECT_EQ(grid.occupant(n), RoutingGrid::kFree);
  grid.occupy(n, 7);
  EXPECT_EQ(grid.occupant(n), 7);

  // A fixed shape of net 3 blocks all other nets nearby but not net 3.
  grid.blockFixedShape({950, 950, 1450, 1450}, m1, 3, 200, 300, 300);
  const Node b{m1, 2, 2};  // (1000, 1000) inside the shape
  EXPECT_FALSE(grid.blockedFor(b, 3));
  EXPECT_TRUE(grid.blockedFor(b, 4));
  // A second foreign shape over the same node escalates to blocked-for-all.
  grid.blockFixedShape({950, 950, 1450, 1450}, m1, 5, 200, 300, 300);
  EXPECT_TRUE(grid.blockedFor(b, 3));
  EXPECT_TRUE(grid.blockedFor(b, 5));
}

class RouterFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tc_ = new benchgen::Testcase(
        benchgen::generate(benchgen::ispd18Suite()[0], /*scale=*/0.01));
  }
  static void TearDownTestSuite() {
    delete tc_;
    tc_ = nullptr;
  }

  RouteResult routeWith(AccessMode mode) {
    core::OracleConfig cfg = mode == AccessMode::kFirstAp
                                 ? core::legacyConfig()
                                 : core::withBcaConfig();
    core::PinAccessOracle oracle(*tc_->design, cfg);
    result_ = oracle.run();
    AccessSource access(*tc_->design, result_.view(), mode);
    DetailedRouter router(*tc_->design, access);
    return router.run();
  }

  static benchgen::Testcase* tc_;
  core::OracleResult result_;
};

benchgen::Testcase* RouterFixture::tc_ = nullptr;

TEST_F(RouterFixture, RoutesMostNetsWithPatternAccess) {
  const RouteResult res = routeWith(AccessMode::kPattern);
  EXPECT_GT(res.stats.routedNets, 0u);
  EXPECT_GT(res.stats.viaCount, 0u);
  EXPECT_GT(res.stats.wireShapes, 0u);
  // The router should connect the overwhelming majority of nets.
  EXPECT_GE(res.stats.routedNets * 10,
            9 * (res.stats.routedNets + res.stats.failedNets));
}

TEST_F(RouterFixture, PatternAccessYieldsFewestAccessDrcs) {
  const RouteResult pattern = routeWith(AccessMode::kPattern);
  const RouteResult greedy = routeWith(AccessMode::kGreedyNearest);
  const RouteResult legacy = routeWith(AccessMode::kFirstAp);
  // Experiment 3's ordering on the pin-access signal: PAAF <= greedy
  // (Dr. CU proxy) <= legacy. Total violation counts also include
  // access-independent router noise, so the comparison uses the
  // access-related subset plus unconnectable pins.
  EXPECT_LE(pattern.accessViolations, greedy.accessViolations);
  EXPECT_LE(greedy.accessViolations, legacy.accessViolations +
                                         legacy.stats.skippedTerms);
  // The legacy access source cannot even contact every pin.
  EXPECT_EQ(pattern.stats.skippedTerms, 0u);
  EXPECT_GT(legacy.stats.skippedTerms, 0u);
}

TEST_F(RouterFixture, RoutedShapesBelongToRealNets) {
  const RouteResult res = routeWith(AccessMode::kPattern);
  for (const RouteShape& s : res.shapes) {
    EXPECT_GE(s.net, 0);
    EXPECT_LT(s.net, static_cast<int>(tc_->design->nets.size()));
    EXPECT_FALSE(s.rect.empty());
  }
}

TEST_F(RouterFixture, StatsAreConsistent) {
  const RouteResult res = routeWith(AccessMode::kPattern);
  EXPECT_EQ(res.stats.routedNets + res.stats.failedNets,
            tc_->design->nets.size());
  std::size_t vias = 0;
  std::size_t wires = 0;
  for (const RouteShape& s : res.shapes) {
    s.isVia ? ++vias : ++wires;
  }
  EXPECT_EQ(wires, res.stats.wireShapes);
  EXPECT_EQ(vias, res.stats.viaCount * 3);  // three shapes per via
}

TEST_F(RouterFixture, RipupReducesViolations) {
  core::PinAccessOracle oracle(*tc_->design, core::withBcaConfig());
  const core::OracleResult res = oracle.run();
  AccessSource access(*tc_->design, res.view(), AccessMode::kPattern);

  RouterConfig noRipup;
  noRipup.ripupPasses = 0;
  const RouteResult before =
      DetailedRouter(*tc_->design, access, noRipup).run();

  RouterConfig withRipup;
  withRipup.ripupPasses = 5;
  const RouteResult after =
      DetailedRouter(*tc_->design, access, withRipup).run();

  EXPECT_LE(after.violations.size(), before.violations.size());
  // Rip-up must never lose connectivity.
  EXPECT_GE(after.stats.routedNets, before.stats.routedNets);
  if (!before.violations.empty()) {
    EXPECT_GT(after.stats.rippedNets, 0u);
  }
}

TEST_F(RouterFixture, RoutedDefByteIdenticalAcrossThreads) {
  // The parallel planning phase must not perturb routed output: the DEF
  // written from a multi-threaded run is byte-identical to the serial one
  // (commits stay serial and in net order).
  core::PinAccessOracle oracle(*tc_->design, core::withBcaConfig());
  const core::OracleResult res = oracle.run();
  AccessSource access(*tc_->design, res.view(), AccessMode::kPattern);

  const auto routedDefWith = [&](int threads) {
    RouterConfig cfg;
    cfg.numThreads = threads;
    const RouteResult rr = DetailedRouter(*tc_->design, access, cfg).run();
    std::vector<lefdef::RoutedShape> routed;
    for (const RouteShape& s : rr.shapes) {
      const db::Layer& layer = tc_->tech->layer(s.layer);
      if (s.isVia && layer.type == db::LayerType::kCut) {
        routed.push_back({s.net, s.layer, s.rect, true});
      } else if (!s.isVia && layer.type == db::LayerType::kRouting) {
        routed.push_back({s.net, s.layer, s.rect, false});
      }
    }
    return lefdef::writeRoutedDef(*tc_->design, routed);
  };
  const std::string serial = routedDefWith(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(routedDefWith(4), serial);
  EXPECT_EQ(routedDefWith(0), serial);
}

TEST_F(RouterFixture, DisabledDrcCountSkipsViolations) {
  core::PinAccessOracle oracle(*tc_->design, core::withBcaConfig());
  const core::OracleResult res = oracle.run();
  AccessSource access(*tc_->design, res.view(), AccessMode::kPattern);
  RouterConfig cfg;
  cfg.countDrcs = false;
  const RouteResult rr = DetailedRouter(*tc_->design, access, cfg).run();
  EXPECT_TRUE(rr.violations.empty());
  EXPECT_GT(rr.stats.routedNets, 0u);
}

}  // namespace
}  // namespace pao::router
