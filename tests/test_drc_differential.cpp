// Differential tests of the DRC via check, the failed-pin evaluation and
// the Step-3 cluster selection against their reference implementations
// (reference.hpp): identical violation vectors and identical chosen
// patterns on the mixed, aes14 and huge presets at small scale and at every
// thread count, an identical batch check on a routed design, and both DRC
// checks on random dense layouts that make every rule fire. checkVia
// returns its violations in violationLess order, which the reference never
// did, so each reference via-check result is compared after that sort;
// every other order, failed-pin details included, is compared as is. The
// failed-pin evaluation's placed-instance view must also report exactly the
// shapes of the reference's copied fixed context for any box, and its
// per-pin view then the other chosen vias a scan of all of them finds, in
// row-walk order; the gathered window of each chosen via must answer every
// box its check issues exactly as that per-pin view does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "benchgen/huge.hpp"
#include "benchgen/testcase.hpp"
#include "lefdef/stream.hpp"
#include "obs/metrics.hpp"
#include "pao/oracle.hpp"
#include "pao/session.hpp"
#include "reference.hpp"
#include "router/access_source.hpp"
#include "router/router.hpp"
#include "test_util.hpp"
#include "util/fault.hpp"

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

/// A reference via-check result in checkVia's violationLess order.
std::vector<drc::Violation> sorted(std::vector<drc::Violation> violations) {
  drc::sortViolations(violations);
  return violations;
}

void expectSameStats(const core::FailedPinStats& got,
                     const core::FailedPinStats& want) {
  EXPECT_EQ(got.totalPins, want.totalPins);
  EXPECT_EQ(got.failedPins, want.failedPins);
  ASSERT_EQ(got.details.size(), want.details.size());
  for (std::size_t i = 0; i < got.details.size(); ++i) {
    EXPECT_EQ(got.details[i].instIdx, want.details[i].instIdx) << i;
    EXPECT_EQ(got.details[i].sigPinPos, want.details[i].sigPinPos) << i;
    EXPECT_EQ(got.details[i].violations, sorted(want.details[i].violations))
        << i;
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

// The view-backed checkVia against the reference check over the copied
// fixed context, on every chosen via alone and beside its neighbours: the
// per-pin view against the reference's radius gather of neighbour vias.
TEST_P(EvalDifferential, CheckViaMatchesReferenceOnEveryChosenVia) {
  const core::OracleResult result = runOracle();
  const db::RowIndex rows(design());
  const core::FailedPinContext ctx(design(), result.view(), rows);
  drc::DrcEngine copy(*design().tech);
  copy.region() = reference::fixedContext(design());
  ASSERT_FALSE(ctx.placed().empty());
  std::size_t dirtyAlone = 0;
  std::size_t dirtyWithNeighbours = 0;
  for (int v = 0; v < static_cast<int>(ctx.placed().size()); ++v) {
    const core::FailedPinContext::PlacedVia& pv = ctx.placed()[v];
    const std::vector<drc::Shape> extra = reference::neighbourShapes(ctx, v);

    const auto alone = ctx.engine().checkVia(ctx, *pv.via, pv.loc, pv.net);
    ASSERT_EQ(alone,
              sorted(reference::checkVia(copy, *pv.via, pv.loc, pv.net)))
        << "via " << v << " without neighbours";
    const auto beside =
        ctx.engine().checkVia(ctx.pinView(v), *pv.via, pv.loc, pv.net);
    ASSERT_EQ(beside, sorted(reference::checkVia(copy, *pv.via, pv.loc,
                                                 pv.net, extra)))
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

// The evaluators run on the result's worker budget; their output must not
// depend on it. Every preset yields several 64-pin chunks, so this covers the
// chunk merge and the detail cap landing inside and across chunks.
TEST_P(EvalDifferential, StatsDoNotDependOnThreadCount) {
  core::OracleResult result = runOracle();
  const core::DirtyApStats dirtySerial = core::countDirtyAps(design(), result);
  constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  for (const core::FailedPinCriterion criterion :
       {core::FailedPinCriterion::kChosenAp,
        core::FailedPinCriterion::kAnyAp}) {
    for (const std::size_t cap : {std::size_t{0}, std::size_t{3}, kAll}) {
      const core::FailedPinStats want =
          reference::countFailedPins(design(), result, cap, criterion);
      for (const int threads : {1, 2, 4, 0}) {
        SCOPED_TRACE(::testing::Message()
                     << (criterion == core::FailedPinCriterion::kChosenAp
                             ? "kChosenAp"
                             : "kAnyAp")
                     << " cap " << cap << " threads " << threads);
        result.numThreads = threads;
        expectSameStats(
            core::countFailedPins(design(), result, cap, criterion), want);
      }
    }
  }
  for (const int threads : {2, 4, 0}) {
    result.numThreads = threads;
    const core::DirtyApStats dirty = core::countDirtyAps(design(), result);
    EXPECT_EQ(dirty.totalAps, dirtySerial.totalAps) << threads;
    EXPECT_EQ(dirty.dirtyAps, dirtySerial.dirtyAps) << threads;
  }
}

// The worker budget reaches the evaluators through the snapshot.
TEST(EvalThreads, SnapshotCarriesTheSessionWorkerBudget) {
  for (const int threads : {1, 2, 4, 0}) {
    core::OracleConfig cfg = core::withBcaConfig();
    cfg.numThreads = threads;
    const core::OracleSession session(presetDesign("mixed"), cfg);
    EXPECT_EQ(session.snapshot().numThreads, threads);
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

/// Every (rect, layer, net, kind) a fixed-context query reports, sorted.
template <typename Context>
std::vector<std::tuple<geom::Rect, int, int, drc::ShapeKind>> shapesIn(
    const Context& context, int layer, const geom::Rect& box) {
  std::vector<std::tuple<geom::Rect, int, int, drc::ShapeKind>> out;
  context.query(layer, box, [&](const drc::Shape& s) {
    out.emplace_back(s.rect, s.layer, s.net, s.kind);
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// Queries the failed-pin view of `design` and the reference copy of its
/// fixed context with 2,000 seeded boxes per layer plus the whole die, and
/// requires the same shapes from both. The boxes lie around a random
/// instance, touch its bbox from outside, touch a random shape's corner
/// from outside, or have zero width.
void expectViewMatchesCopy(const db::Design& design) {
  const core::OracleResult result =
      core::PinAccessOracle(design, core::withBcaConfig()).run();
  const db::RowIndex rows(design);
  const core::FailedPinContext view(design, result.view(), rows);
  const drc::RegionQuery copy = reference::fixedContext(design);
  std::mt19937_64 rng(17);
  const auto pick = [&](geom::Coord lo, geom::Coord hi) {
    return std::uniform_int_distribution<geom::Coord>(lo, hi)(rng);
  };
  const auto count = [&](std::size_t n) {
    return static_cast<std::size_t>(pick(0, static_cast<geom::Coord>(n) - 1));
  };
  std::size_t hits = 0;
  for (int layer = 0; layer < copy.numLayers(); ++layer) {
    SCOPED_TRACE("layer " + std::to_string(layer));
    const std::vector<drc::Shape>& shapes = copy.shapesOnLayer(layer);
    ASSERT_EQ(shapesIn(view, layer, design.dieArea.bloat(10000)),
              shapesIn(copy, layer, design.dieArea.bloat(10000)));
    for (int q = 0; q < 2000; ++q) {
      const geom::Rect cell =
          design.instances[count(design.instances.size())].bbox();
      const geom::Coord d = pick(0, 600);
      const geom::Coord x = pick(cell.xlo, cell.xhi);
      const geom::Coord y = pick(cell.ylo, cell.yhi);
      geom::Rect box;
      switch (q % 5) {
        case 0:
          box = geom::Rect(pick(cell.xlo - 2000, cell.xhi + 2000),
                           pick(cell.ylo - 2000, cell.yhi + 2000),
                           pick(cell.xlo - 2000, cell.xhi + 2000),
                           pick(cell.ylo - 2000, cell.yhi + 2000));
          break;
        case 1:  // touching the left or the right edge
          box = q % 2 == 0 ? geom::Rect(cell.xlo - d, y, cell.xlo, cell.yhi)
                           : geom::Rect(cell.xhi, cell.ylo, cell.xhi + d, y);
          break;
        case 2:  // touching the bottom or the top edge
          box = q % 2 == 0 ? geom::Rect(x, cell.ylo - d, cell.xhi, cell.ylo)
                           : geom::Rect(cell.xlo, cell.yhi, x, cell.yhi + d);
          break;
        case 3:  // touching a shape's upper-right corner
          if (!shapes.empty()) {
            const geom::Rect r = shapes[count(shapes.size())].rect;
            box = geom::Rect(r.xhi, r.yhi, r.xhi + d, r.yhi + d);
            break;
          }
          [[fallthrough]];
        default:  // zero width
          box = geom::Rect(x, cell.ylo - d, x, cell.yhi + d);
      }
      const auto want = shapesIn(copy, layer, box);
      hits += want.empty() ? 0 : 1;
      ASSERT_EQ(shapesIn(view, layer, box), want) << "box " << q;
    }
  }
  EXPECT_GT(hits, 0u);
}

// The view against the copy on every preset, on multi-height cells, and on
// abutting cells whose pin shape and obstruction overhang the cell bbox.
TEST(FailedPinView, QueryMatchesRegionQuery) {
  for (const char* name : {"mixed", "aes14", "huge"}) {
    SCOPED_TRACE(name);
    expectViewMatchesCopy(presetDesign(name));
  }
  {
    SCOPED_TRACE("multi-height");
    benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
    spec.numCells = 250;
    spec.numNets = 120;
    spec.multiHeightFraction = 0.12;
    spec.seed = 7;
    const benchgen::Testcase tc = benchgen::generate(spec, 1.0);
    expectViewMatchesCopy(*tc.design);
  }
  SCOPED_TRACE("overhang");
  test::TinyDesign td =
      test::makeTinyDesign({{0, geom::Rect{-150, 300, 250, 1100}}},
                           {{1, geom::Rect{500, 900, 700, 1500}}});
  db::Design& d = *td.design;
  db::Instance right = d.instances[0];
  right.name = "u2";
  right.origin = {1200, 0};
  right.orient = geom::Orient::MY;
  d.instances.push_back(right);
  db::Instance above = d.instances[0];
  above.name = "u3";
  above.origin = {0, 1200};
  d.instances.push_back(above);
  d.buildInstanceIndex();
  d.nets.push_back({"n0", {{0, 0, -1}, {2, 0, -1}}});
  expectViewMatchesCopy(d);
}

/// Every shape a query reports, in report order.
template <typename Context>
std::vector<std::tuple<geom::Rect, int, int, drc::ShapeKind, bool>> reported(
    const Context& context, int layer, const geom::Rect& box) {
  std::vector<std::tuple<geom::Rect, int, int, drc::ShapeKind, bool>> out;
  context.query(layer, box, [&](const drc::Shape& s) {
    out.emplace_back(s.rect, s.layer, s.net, s.kind, s.fixed);
  });
  return out;
}

// The per-pin view of a chosen via against brute force: for seeded boxes
// around the via, it must report the copied fixed context's shapes, then the
// shape on the layer of every other chosen via touching the box, found by a
// scan of all of them, in the documented order: instances by (origin y,
// origin x, index), each instance's vias in placed() order.
TEST(FailedPinView, PinViewMatchesBruteForce) {
  for (const char* name : {"mixed", "aes14", "huge"}) {
    SCOPED_TRACE(name);
    const db::Design& design = presetDesign(name);
    const core::OracleResult result =
        core::PinAccessOracle(design, core::withBcaConfig()).run();
    const db::RowIndex rows(design);
    const core::FailedPinContext ctx(design, result.view(), rows);
    const drc::RegionQuery copy = reference::fixedContext(design);
    const std::vector<core::FailedPinContext::PlacedVia>& placed =
        ctx.placed();
    ASSERT_FALSE(placed.empty());
    // Row-walk rank of a placed via: its instance's (origin y, origin x,
    // index), then its own index.
    const auto rank = [&](int u) {
      const db::Instance& inst = design.instances[placed[u].inst];
      return std::make_tuple(inst.origin.y, inst.origin.x, placed[u].inst, u);
    };
    std::mt19937_64 rng(23);
    const auto pick = [&](geom::Coord lo, geom::Coord hi) {
      return std::uniform_int_distribution<geom::Coord>(lo, hi)(rng);
    };
    const auto anyVia = [&] {
      return static_cast<int>(
          pick(0, static_cast<geom::Coord>(placed.size()) - 1));
    };
    std::size_t viaHits = 0;
    for (int q = 0; q < 3000; ++q) {
      const int v = anyVia();
      const core::FailedPinContext::PlacedVia& pv = placed[v];
      const int layers[] = {pv.via->botLayer, pv.via->cutLayer,
                            pv.via->topLayer};
      const int layer = layers[q % 3];
      const geom::Rect enc = pv.via->botEncAt(pv.loc).merge(
          pv.via->topEncAt(pv.loc));
      const geom::Coord d = pick(0, 3000);
      geom::Rect box;
      switch (q % 4) {
        case 0:  // the via's vicinity
          box = enc.bloat(d);
          break;
        case 1:  // an offset box nearby
          box = geom::Rect(pick(enc.xlo - 4000, enc.xhi + 4000),
                           pick(enc.ylo - 4000, enc.yhi + 4000),
                           pick(enc.xlo - 4000, enc.xhi + 4000),
                           pick(enc.ylo - 4000, enc.yhi + 4000));
          break;
        case 2: {  // touching another via's shape corner from outside
          const core::FailedPinContext::PlacedVia& pu = placed[anyVia()];
          const geom::Rect r = pu.via->topEncAt(pu.loc);
          box = geom::Rect(r.xhi, r.yhi, r.xhi + d, r.yhi + d);
          break;
        }
        default:  // zero width
          box = geom::Rect(pv.loc.x, pv.loc.y - d, pv.loc.x, pv.loc.y + d);
      }
      const auto got = reported(ctx.pinView(v), layer, box);
      const auto fixed = reported(ctx, layer, box);
      ASSERT_GE(got.size(), fixed.size()) << "box " << q;
      // The fixed shapes come first, as the context reports them, and are
      // exactly the copy's.
      ASSERT_TRUE(std::equal(fixed.begin(), fixed.end(), got.begin()))
          << "box " << q;
      ASSERT_EQ(shapesIn(ctx, layer, box), shapesIn(copy, layer, box))
          << "box " << q;

      // A via has one shape per layer, so its rank orders its shapes.
      std::vector<std::pair<decltype(rank(0)), drc::Shape>> touching;
      for (int u = 0; u < static_cast<int>(placed.size()); ++u) {
        if (u == v) continue;
        for (const drc::Shape& s : ctx.engine().viaShapes(
                 *placed[u].via, placed[u].loc, placed[u].net)) {
          if (s.layer == layer && s.rect.intersects(box)) {
            touching.emplace_back(rank(u), s);
          }
        }
      }
      std::sort(touching.begin(), touching.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      std::vector<std::tuple<geom::Rect, int, int, drc::ShapeKind, bool>> want;
      for (const auto& [key, s] : touching) {
        want.emplace_back(s.rect, s.layer, s.net, s.kind, s.fixed);
      }
      viaHits += want.empty() ? 0 : 1;
      const auto vias = got.begin() + static_cast<std::ptrdiff_t>(fixed.size());
      ASSERT_EQ(std::vector(vias, got.end()), want)
          << "box " << q << " of via " << v;
    }
    EXPECT_GT(viaHits, 100u);
  }
}

/// A checkVia context that requires, for every box the check issues, the
/// same shapes in the same order from `window` as from pinView `view`, then
/// answers from the window. Counts the boxes, and those inside the window.
struct WindowAgainstPinView {
  const core::FailedPinContext::PinWindow& window;
  core::FailedPinContext::PinView view;
  std::size_t& queries;
  std::size_t& inside;

  template <typename Fn>
  void query(int layer, const geom::Rect& box, Fn&& fn) const {
    ++queries;
    inside += window.window().contains(box) ? 1 : 0;
    EXPECT_EQ(reported(window, layer, box), reported(view, layer, box))
        << "layer " << layer << " box " << box.xlo << "," << box.ylo << " "
        << box.xhi << "," << box.yhi;
    window.query(layer, box, fn);
  }
};

struct WindowTally {
  std::size_t queries = 0;
  std::size_t inside = 0;
  std::size_t dirty = 0;
  std::size_t ioWindows = 0;  ///< windows an IO pin sent to pinView
};

/// For every chosen via of `ctx`, one reused PinWindow gathered for it
/// against its pinView: every box checkVia issues gets the same shapes in
/// the same order, and the check the same violations and reach.
WindowTally expectWindowMatchesPinView(const core::FailedPinContext& ctx) {
  WindowTally tally;
  core::FailedPinContext::PinWindow window(ctx);
  for (int v = 0; v < static_cast<int>(ctx.placed().size()); ++v) {
    const core::FailedPinContext::PlacedVia& pv = ctx.placed()[v];
    window.gather(v);
    tally.ioWindows += window.window().empty() ? 1 : 0;
    const WindowAgainstPinView both{window, ctx.pinView(v), tally.queries,
                                    tally.inside};
    ctx.engine().checkVia(both, *pv.via, pv.loc, pv.net);
    geom::Rect viewReach;
    geom::Rect windowReach;
    const std::vector<drc::Violation> want = ctx.engine().checkVia(
        ctx.pinView(v), *pv.via, pv.loc, pv.net, {}, &viewReach);
    EXPECT_EQ(ctx.engine().checkVia(window, *pv.via, pv.loc, pv.net, {},
                                    &windowReach),
              want);
    EXPECT_EQ(windowReach, viewReach);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first mismatch at via " << v;
      return tally;
    }
    tally.dirty += want.empty() ? 0 : 1;
  }
  return tally;
}

// The gathered window of every chosen via against its pinView, on every
// preset and on both sides of checkVia (BCA leaves the vias clean, the
// legacy baseline many dirty). Nearly every box a check issues lies inside
// the window, or the window would save nothing.
TEST_P(EvalDifferential, WindowMatchesPinViewOnEveryCheck) {
  const core::OracleResult result = runOracle();
  const db::RowIndex rows(design());
  const core::FailedPinContext ctx(design(), result.view(), rows);
  ASSERT_FALSE(ctx.placed().empty());
  const WindowTally tally = expectWindowMatchesPinView(ctx);
  EXPECT_GE(tally.inside * 10, tally.queries * 9)
      << tally.inside << " of " << tally.queries << " boxes inside";
  if (std::get<1>(GetParam())) {
    EXPECT_GT(tally.dirty, 0u);
  }
}

// An IO pin in a via's window sends that whole check to pinView: IO pins
// beside every tenth chosen via of the mixed preset's legacy result, and
// the window still answers exactly as pinView does.
TEST(FailedPinView, WindowWithAnIoPinGoesToPinView) {
  benchgen::Testcase tc = benchgen::generate(benchgen::mixedSpec(), 0.02);
  db::Design& design = *tc.design;
  const core::OracleResult result =
      core::PinAccessOracle(design, core::legacyConfig()).run();
  std::vector<db::IoPin> ioPins;
  {
    const db::RowIndex rows(design);
    const core::FailedPinContext before(design, result.view(), rows);
    for (std::size_t v = 0; v < before.placed().size(); v += 10) {
      const core::FailedPinContext::PlacedVia& pv = before.placed()[v];
      const geom::Rect top = pv.via->topEncAt(pv.loc);
      ioPins.push_back({"io" + std::to_string(v), pv.via->topLayer,
                        top.translate(top.width() + 50, 0)});
    }
  }
  design.ioPins.insert(design.ioPins.end(), ioPins.begin(), ioPins.end());
  const db::RowIndex rows(design);
  const core::FailedPinContext ctx(design, result.view(), rows);
  const WindowTally tally = expectWindowMatchesPinView(ctx);
  EXPECT_GE(tally.ioWindows, ioPins.size());
  EXPECT_GT(tally.dirty, 0u);
}

/// Preset x worker count: the session's Step 3 against the reference
/// selection run serially on the same Steps 1-2 result.
class Step3Differential
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(Step3Differential, ChosenPatternsMatchReference) {
  const std::string& preset = std::get<0>(GetParam());
  core::OracleConfig cfg = core::withBcaConfig();
  cfg.numThreads = std::get<1>(GetParam());
  const core::OracleSession session(presetDesign(preset), cfg);
  const reference::ClusterSelection want =
      reference::selectClusters(session.design(), session.unique(),
                                session.classAccesses(), cfg.clusterSelect);
  EXPECT_EQ(session.chosenPattern(), want.chosenPattern);
  ASSERT_GT(want.pairChecks, 0u);
  // Count gate: the reference probes every pattern pair its full DP reads;
  // the bounded DP probes only the verdicts that can change its answer, at
  // most once per session, and on these presets that is under half as many.
  EXPECT_GT(session.stats().pairChecks, 0u);
  EXPECT_LE(2 * session.stats().pairChecks, want.pairChecks);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, Step3Differential,
    ::testing::Combine(::testing::Values("mixed", "aes14", "huge"),
                       ::testing::Values(1, 4, 0)),
    [](const ::testing::TestParamInfo<Step3Differential::ParamType>& info) {
      return std::get<0>(info.param) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

// The session's pair-check and cluster-DP counts and the registry metrics
// it publishes from its merged per-cluster tallies agree, and the counts do
// not depend on the worker count, on a preset with multi-height cells.
TEST(Step3PairChecks, RegistryDeltaEqualsSessionCountAtAnyThreadCount) {
  obs::Registry& registry = obs::Registry::instance();
  const obs::Counter& published = registry.counter("pao.step3.pair_checks");
  const obs::Counter& dpRuns = registry.counter("pao.step3.cluster_dp_runs");
  const obs::Histogram& sizes = registry.histogram("pao.step3.cluster_size");
  std::size_t serial = 0;
  std::size_t serialDpRuns = 0;
  for (const int threads : {1, 4, 0}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    core::OracleConfig cfg = core::withBcaConfig();
    cfg.numThreads = threads;
    const std::uint64_t before = published.value();
    const std::uint64_t dpRunsBefore = dpRuns.value();
    const std::uint64_t sizesBefore = sizes.count();
    const core::OracleSession session(presetDesign("mixed"), cfg);
    const std::size_t pairChecks = session.stats().pairChecks;
    const std::size_t clusterDpRuns = session.stats().clusterDpRuns;
    EXPECT_GT(pairChecks, 0u);
    EXPECT_GT(clusterDpRuns, 0u);
#if PAO_OBS_ENABLED
    EXPECT_EQ(published.value() - before, pairChecks);
    EXPECT_EQ(dpRuns.value() - dpRunsBefore, clusterDpRuns);
    EXPECT_EQ(sizes.count() - sizesBefore, clusterDpRuns);
#else
    EXPECT_EQ(published.value(), before);
    EXPECT_EQ(dpRuns.value(), dpRunsBefore);
    EXPECT_EQ(sizes.count(), sizesBefore);
#endif
    if (threads == 1) {
      serial = pairChecks;
      serialDpRuns = clusterDpRuns;
    }
    EXPECT_EQ(pairChecks, serial);
    EXPECT_EQ(clusterDpRuns, serialDpRuns);
  }
#if PAO_FAULTS && PAO_OBS_ENABLED
  // A pass whose budget expires at its third deadline check: the fallback
  // count the registry got equals the one the step3_budget event names.
  struct Disarm {
    ~Disarm() { util::FaultRegistry::instance().reset(); }
  } disarm;
  ASSERT_TRUE(util::FaultRegistry::instance().configure("step3.deadline:3"));
  const obs::Counter& fallbacks =
      registry.counter("pao.step3.budget_fallbacks");
  const std::uint64_t fallbacksBefore = fallbacks.value();
  const std::uint64_t dpRunsBefore = dpRuns.value();
  core::OracleConfig cfg = core::withBcaConfig();
  cfg.numThreads = 4;
  const core::OracleSession session(presetDesign("mixed"), cfg);
  const auto event = std::find_if(
      session.degraded().begin(), session.degraded().end(),
      [](const core::DegradedEvent& e) { return e.kind == "step3_budget"; });
  ASSERT_NE(event, session.degraded().end());
  const std::uint64_t named = std::stoull(event->detail);
  EXPECT_GT(named, 0u);
  EXPECT_EQ(fallbacks.value() - fallbacksBefore, named);
  EXPECT_EQ(dpRuns.value() - dpRunsBefore, session.stats().clusterDpRuns);
  EXPECT_LT(session.stats().clusterDpRuns, serialDpRuns);
#endif
}

TEST(CheckAllDifferential, RoutedDesignMatchesReference) {
  const benchgen::Testcase tc =
      benchgen::generate(benchgen::ispd18Suite()[0], /*scale=*/0.01);
  const db::Design& design = *tc.design;
  // The legacy access points leave dirty access vias behind, so the batch
  // check meets min-step markers as well as spacing and shorts.
  core::PinAccessOracle oracle(design, core::legacyConfig());
  const core::OracleResult result = oracle.run();
  router::AccessSource access(design, result.view(),
                              router::AccessMode::kFirstAp);
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
      ASSERT_EQ(got, sorted(reference::checkVia(engine, via, p, net, extra)))
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
