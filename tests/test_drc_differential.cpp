// Differential tests of the DRC via check and the failed-pin evaluation
// against their reference implementations (reference.hpp): identical
// violation vectors, in the same order, on the mixed, aes14 and huge
// presets at small scale, an identical batch check on a routed design, and
// both on random dense layouts that make every rule fire.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/huge.hpp"
#include "benchgen/testcase.hpp"
#include "lefdef/stream.hpp"
#include "pao/oracle.hpp"
#include "reference.hpp"
#include "router/access_source.hpp"
#include "router/router.hpp"
#include "test_util.hpp"

namespace pao {
namespace {

/// A generated design plus whatever owns its tech and library.
struct Preset {
  benchgen::Testcase testcase;
  benchgen::HugeTechLib hugeTechLib;
  db::Design hugeDesign;

  const db::Design& design() const {
    return testcase.design ? *testcase.design : hugeDesign;
  }
};

/// Small instances of the three benchmark presets, built once per process.
const db::Design& presetDesign(const std::string& name) {
  static std::map<std::string, std::unique_ptr<Preset>> cache;
  std::unique_ptr<Preset>& slot = cache[name];
  if (slot) return slot->design();
  slot = std::make_unique<Preset>();
  if (name == "mixed") {
    slot->testcase = benchgen::generate(benchgen::mixedSpec(), 0.02);
  } else if (name == "aes14") {
    slot->testcase = benchgen::generate(benchgen::aes14Spec(), 0.03);
  } else {
    const benchgen::HugeSpec spec = benchgen::hugeSpec();
    slot->hugeTechLib = benchgen::makeHugeTechLib(spec);
    std::ostringstream def;
    benchgen::writeHugeDef(spec, 0.001, *slot->hugeTechLib.tech,
                           *slot->hugeTechLib.lib, def);
    slot->hugeDesign.tech = slot->hugeTechLib.tech.get();
    slot->hugeDesign.lib = slot->hugeTechLib.lib.get();
    lefdef::parseDef(def.str(), slot->hugeDesign);
  }
  return slot->design();
}

void expectSameStats(const core::FailedPinStats& got,
                     const core::FailedPinStats& want) {
  EXPECT_EQ(got.totalPins, want.totalPins);
  EXPECT_EQ(got.failedPins, want.failedPins);
  ASSERT_EQ(got.details.size(), want.details.size());
  for (std::size_t i = 0; i < got.details.size(); ++i) {
    EXPECT_EQ(got.details[i].instIdx, want.details[i].instIdx) << i;
    EXPECT_EQ(got.details[i].sigPinPos, want.details[i].sigPinPos) << i;
    EXPECT_EQ(got.details[i].violations, want.details[i].violations) << i;
  }
}

/// Preset x oracle mode: BCA leaves almost every chosen via clean, the
/// legacy baseline leaves many dirty, so both sides of checkVia are hit.
class EvalDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {
 protected:
  const db::Design& design() const {
    return presetDesign(std::get<0>(GetParam()));
  }
  core::OracleResult runOracle() const {
    const bool legacy = std::get<1>(GetParam());
    core::PinAccessOracle oracle(
        design(), legacy ? core::legacyConfig() : core::withBcaConfig());
    return oracle.run();
  }
};

TEST_P(EvalDifferential, CheckViaMatchesReferenceOnEveryChosenVia) {
  const core::OracleResult result = runOracle();
  const core::FailedPinContext ctx(design(), result);
  ASSERT_FALSE(ctx.placed().empty());
  std::vector<drc::Shape> extra;
  std::size_t dirtyAlone = 0;
  std::size_t dirtyWithNeighbours = 0;
  for (int v = 0; v < static_cast<int>(ctx.placed().size()); ++v) {
    const core::FailedPinContext::PlacedVia& pv = ctx.placed()[v];
    extra.clear();
    ctx.neighbourShapes(v, extra);

    const auto alone = ctx.engine().checkVia(*pv.via, pv.loc, pv.net);
    ASSERT_EQ(alone, reference::checkVia(ctx.engine(), *pv.via, pv.loc,
                                         pv.net))
        << "via " << v << " without neighbours";
    const auto beside = ctx.engine().checkVia(*pv.via, pv.loc, pv.net, extra);
    ASSERT_EQ(beside, reference::checkVia(ctx.engine(), *pv.via, pv.loc,
                                          pv.net, extra))
        << "via " << v << " with " << extra.size() << " neighbour shapes";
    dirtyAlone += alone.empty() ? 0 : 1;
    dirtyWithNeighbours += beside.empty() ? 0 : 1;
  }
  if (std::get<1>(GetParam())) {
    // The legacy baseline must exercise the violation paths, or the
    // comparison above proves little.
    EXPECT_GT(dirtyAlone + dirtyWithNeighbours, 0u);
  }
}

TEST_P(EvalDifferential, FailedPinStatsMatchReference) {
  const core::OracleResult result = runOracle();
  constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  for (const core::FailedPinCriterion criterion :
       {core::FailedPinCriterion::kChosenAp,
        core::FailedPinCriterion::kAnyAp}) {
    SCOPED_TRACE(criterion == core::FailedPinCriterion::kChosenAp
                     ? "kChosenAp"
                     : "kAnyAp");
    const core::FailedPinStats got =
        core::countFailedPins(design(), result, kAll, criterion);
    expectSameStats(got, reference::countFailedPins(design(), result, kAll,
                                                    criterion));
    // A detail cap keeps the first failures, in the same order.
    expectSameStats(core::countFailedPins(design(), result, 3, criterion),
                    reference::countFailedPins(design(), result, 3,
                                               criterion));
    EXPECT_GT(got.totalPins, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, EvalDifferential,
    ::testing::Combine(::testing::Values("mixed", "aes14", "huge"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<EvalDifferential::ParamType>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_legacy" : "_bca");
    });

TEST(CheckAllDifferential, RoutedDesignMatchesReference) {
  const benchgen::Testcase tc =
      benchgen::generate(benchgen::ispd18Suite()[0], /*scale=*/0.01);
  const db::Design& design = *tc.design;
  // The legacy access points leave dirty access vias behind, so the batch
  // check meets min-step markers as well as spacing and shorts.
  core::PinAccessOracle oracle(design, core::legacyConfig());
  const core::OracleResult result = oracle.run();
  router::AccessSource access(design, result, router::AccessMode::kFirstAp);
  router::RouterConfig rc;
  rc.countDrcs = false;  // no rip-up: keep the raw routing's violations
  const router::RouteResult routed =
      router::DetailedRouter(design, access, rc).run();
  ASSERT_FALSE(routed.shapes.empty());

  // Fixed design metal plus the routed wires and vias, nets as the router's
  // own DRC pass assigns them.
  drc::DrcEngine engine(*design.tech);
  std::map<std::pair<int, int>, int> netOf;
  for (int n = 0; n < static_cast<int>(design.nets.size()); ++n) {
    for (const db::NetTerm& t : design.nets[n].terms) {
      if (!t.isIo()) netOf[{t.instIdx, t.pinIdx}] = n;
    }
  }
  int synthetic = static_cast<int>(design.nets.size());
  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const db::Instance& inst = design.instances[i];
    const geom::Transform xf = inst.transform();
    for (int p = 0; p < static_cast<int>(inst.master->pins.size()); ++p) {
      const db::Pin& pin = inst.master->pins[p];
      int net = drc::Shape::kObsNet;
      if (pin.use != db::PinUse::kPower && pin.use != db::PinUse::kGround) {
        const auto it = netOf.find({i, p});
        net = it != netOf.end() ? it->second : synthetic++;
      }
      for (const db::PinShape& s : pin.shapes) {
        engine.region().add({xf.apply(s.rect), s.layer, net,
                             drc::ShapeKind::kPin, true});
      }
    }
    for (const db::Obstruction& o : inst.master->obstructions) {
      engine.region().add({xf.apply(o.rect), o.layer, drc::Shape::kObsNet,
                           drc::ShapeKind::kObstruction, true});
    }
  }
  for (const router::RouteShape& s : routed.shapes) {
    engine.region().add({s.rect, s.layer, s.net,
                         s.isVia ? drc::ShapeKind::kVia
                                 : drc::ShapeKind::kWire,
                         false});
  }

  const std::vector<drc::Violation> want = reference::checkAll(engine);
  std::size_t edgeRuleHits = 0;
  for (const drc::Violation& v : want) {
    if (v.kind == drc::RuleKind::kMinStep ||
        v.kind == drc::RuleKind::kEndOfLine) {
      ++edgeRuleHits;
    }
  }
  EXPECT_GT(edgeRuleHits, 0u) << "min step / EOL paths not exercised";
  EXPECT_EQ(engine.checkAll(1), want);
  EXPECT_EQ(engine.checkAll(4), want);
}

TEST(DrcRandomDifferential, CheckViaAndCheckAllMatchReference) {
  // Random wires, pins and obstructions on the tiny tech's two metal
  // layers, dense enough that line ends meet other nets inside their EOL
  // clearance — which the presets, clean by construction, rarely do.
  const std::unique_ptr<db::Tech> tech = test::makeTinyTech();
  const db::ViaDef& via = *tech->findViaDef("V1_0");
  std::mt19937 rng(2020);
  const auto uniform = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const auto snapped = [&](int lo, int hi) { return uniform(lo, hi) * 10; };
  std::map<drc::RuleKind, std::size_t> kinds;
  for (int layout = 0; layout < 20; ++layout) {
    drc::DrcEngine engine(*tech);
    for (int s = 0; s < 60; ++s) {
      const bool horizontal = s % 2 == 0;
      const int layer = horizontal ? via.botLayer : via.topLayer;
      const geom::Coord x = snapped(0, 300);
      const geom::Coord y = snapped(0, 300);
      const geom::Coord len = snapped(15, 120);
      const geom::Coord width = uniform(0, 3) == 0 ? 200 : 100;
      const geom::Rect r = horizontal ? geom::Rect(x, y, x + len, y + width)
                                      : geom::Rect(x, y, x + width, y + len);
      const int net = uniform(-1, 4);
      const bool fixed = uniform(0, 1) == 0;
      engine.region().add({r, layer, net,
                           net < 0 ? drc::ShapeKind::kObstruction
                                   : (fixed ? drc::ShapeKind::kPin
                                            : drc::ShapeKind::kWire),
                           net < 0 || fixed});
    }
    for (int d = 0; d < 60; ++d) {
      const geom::Point p{snapped(0, 300), snapped(0, 300)};
      const int net = uniform(0, 4);
      std::vector<drc::Shape> extra;
      if (d % 2 == 1) {
        const geom::Point q{p.x + snapped(-40, 40), p.y + snapped(-40, 40)};
        const auto shapes = engine.viaShapes(via, q, uniform(0, 4));
        extra.assign(shapes.begin(), shapes.end());
      }
      const std::vector<drc::Violation> got =
          engine.checkVia(via, p, net, extra);
      ASSERT_EQ(got, reference::checkVia(engine, via, p, net, extra))
          << "layout " << layout << " drop " << d;
      for (const drc::Violation& v : got) ++kinds[v.kind];
    }
    const std::vector<drc::Violation> all = reference::checkAll(engine);
    ASSERT_EQ(engine.checkAll(1), all) << "layout " << layout;
    for (const drc::Violation& v : all) ++kinds[v.kind];
  }
  EXPECT_GT(kinds[drc::RuleKind::kEndOfLine], 0u);
  EXPECT_GT(kinds[drc::RuleKind::kMinStep], 0u);
  EXPECT_GT(kinds[drc::RuleKind::kMetalSpacing], 0u);
}

}  // namespace
}  // namespace pao
