// OracleSession tests: the incremental oracle must stay exactly equivalent
// to a fresh batch run after any mutation sequence (the refactor's
// load-bearing invariant), while recomputing only dirty clusters.
#include "pao/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>

#include "benchgen/huge.hpp"
#include "benchgen/testcase.hpp"
#include "lefdef/stream.hpp"
#include "pao/evaluate.hpp"
#include "pao/oracle.hpp"
#include "reference.hpp"
#include "test_util.hpp"
#include "util/fault.hpp"

namespace pao::core {
namespace {

benchgen::Testcase smallCase() {
  benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
  spec.numCells = 150;
  spec.numNets = 80;
  return benchgen::generate(spec, 1.0);
}

/// Deterministic LCG (same constants as pao_cli bench-incremental); the low
/// bits of an LCG are weak, so only the upper bits are used.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 17;
  }
};

/// A random site of a random placement row.
geom::Point randomSite(const db::Design& design, Lcg& rng) {
  const db::Row& row = design.rows[rng.next() % design.rows.size()];
  const std::uint64_t sites =
      row.numSites > 0 ? static_cast<std::uint64_t>(row.numSites) : 1;
  return {row.origin.x +
              static_cast<geom::Coord>(rng.next() % sites) * row.siteWidth,
          row.origin.y};
}

/// One random row-snapped move or orientation flip through the session.
void randomMutation(OracleSession& session, db::Design& design, Lcg& rng) {
  const int inst = static_cast<int>(rng.next() % design.instances.size());
  if (rng.next() % 4 == 0) {
    const geom::Orient cur = design.instances[inst].orient;
    session.setOrient(inst, cur == geom::Orient::R0 ? geom::Orient::MX
                                                    : geom::Orient::R0);
    return;
  }
  session.moveInstance(inst, randomSite(design, rng));
}

/// chosenAp agreement for every (instance, signal pin) — class-order
/// independent, unlike comparing the classes vectors directly.
bool sameAccess(const OracleResult& a, const OracleResult& b,
                const db::Design& design) {
  if (a.chosenPattern != b.chosenPattern) return false;
  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const int cls = a.unique.classOf[i];
    if (cls < 0 || a.classes[cls].pinAps.empty()) continue;
    for (int p = 0; p < static_cast<int>(a.classes[cls].pinAps.size());
         ++p) {
      const auto apA = a.chosenAp(design, i, p);
      const auto apB = b.chosenAp(design, i, p);
      if (apA.has_value() != apB.has_value()) return false;
      if (apA && apA->loc != apB->loc) return false;
    }
  }
  return true;
}

void expectMatchesBatch(const OracleSession& session, db::Design& design,
                        const OracleConfig& cfg) {
  PinAccessOracle fresh(design, cfg);
  const OracleResult batch = fresh.run();
  EXPECT_EQ(batch.chosenPattern, session.chosenPattern());
  EXPECT_TRUE(sameAccess(batch, session.snapshot(), design));
}

class SessionEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SessionEquivalence, RandomMutationsMatchFreshBatchRun) {
  benchgen::Testcase tc = smallCase();
  AccessCache cache;
  OracleConfig cfg = withBcaConfig();
  cfg.numThreads = GetParam();
  cfg.cache = &cache;

  OracleSession session(*tc.design, cfg);
  expectMatchesBatch(session, *tc.design, cfg);

  Lcg rng{7 + static_cast<std::uint64_t>(GetParam())};
  for (int m = 0; m < 5; ++m) {
    randomMutation(session, *tc.design, rng);
    expectMatchesBatch(session, *tc.design, cfg);
  }
}

// The verdict table a session keeps across mutations gives the same
// selection as the reference Step 3 run afresh on the mutated design. The
// mixed preset's multi-height cells put pinned patterns in the way.
TEST_P(SessionEquivalence, MutatedStep3MatchesReference) {
  benchgen::Testcase tc = benchgen::generate(benchgen::mixedSpec(), 0.02);
  OracleConfig cfg = withBcaConfig();
  cfg.numThreads = GetParam();
  OracleSession session(*tc.design, cfg);

  Lcg rng{11 + static_cast<std::uint64_t>(GetParam())};
  for (int m = 0; m < 8; ++m) {
    randomMutation(session, *tc.design, rng);
    const reference::ClusterSelection want =
        reference::selectClusters(*tc.design, session.unique(),
                                  session.classAccesses(), cfg.clusterSelect);
    EXPECT_EQ(session.chosenPattern(), want.chosenPattern) << "mutation " << m;
  }
}

void expectSameFailedPins(const FailedPinStats& got,
                          const FailedPinStats& want) {
  EXPECT_EQ(got.totalPins, want.totalPins);
  EXPECT_EQ(got.failedPins, want.failedPins);
}

/// session.failedPins() equals countFailedPins of a fresh batch run of the
/// mutated design, and the chosen patterns are the run's; returns the
/// session's stats.
FailedPinStats expectFailedPinsMatchBatch(OracleSession& session,
                                          const db::Design& design,
                                          const OracleConfig& cfg) {
  const FailedPinStats got = session.failedPins();
  PinAccessOracle fresh(design, cfg);
  const OracleResult batch = fresh.run();
  EXPECT_EQ(session.chosenPattern(), batch.chosenPattern);
  expectSameFailedPins(got, countFailedPins(design, batch));
  return got;
}

// Random mutation runs with a report after every 1-10 mutations: the
// session re-checks only the pins a change can reach, and still counts
// exactly what the batch evaluation of its state counts — the contract of
// failedPins(), held apart from the oracle steps before it (chosen patterns
// can drift from a fresh run once a class's representative sits where the
// track patterns end; see ROADMAP item 4, "One class builder, exact at
// track ends").
// Moves onto occupied sites make pins fail, so the counts are not trivially
// zero; moves half a row off the rows make rows appear and empty.
TEST_P(SessionEquivalence, IncrementalFailedPinsMatchBatch) {
  for (const bool mixed : {false, true}) {
    SCOPED_TRACE(mixed ? "mixed 0.02" : "small case");
    benchgen::Testcase tc = mixed
                                ? benchgen::generate(benchgen::mixedSpec(), 0.02)
                                : smallCase();
    db::Design& design = *tc.design;
    OracleConfig cfg = withBcaConfig();
    cfg.numThreads = GetParam();
    OracleSession session(design, cfg);
    expectFailedPinsMatchBatch(session, design, cfg);
    const auto evaluate = [&] {
      const FailedPinStats got = session.failedPins();
      expectSameFailedPins(got, countFailedPins(design, session.snapshot()));
      return got;
    };

    Lcg rng{31 + static_cast<std::uint64_t>(GetParam())};
    bool sawFailure = false;
    bool sawPartial = false;
    int clones = 0;
    for (int report = 0; report < 30; ++report) {
      const int mutations = 1 + static_cast<int>(rng.next() % 10);
      for (int m = 0; m < mutations; ++m) {
        const std::uint64_t kind = rng.next() % 40;
        const int inst =
            static_cast<int>(rng.next() % design.instances.size());
        if (kind == 0) {
          db::Instance clone = design.instances[inst];
          clone.name = "failed_pins_clone_" + std::to_string(clones++);
          session.addInstance(clone);
        } else if (kind == 1) {
          session.removeInstance(inst);
        } else if (kind < 6) {
          const geom::Point at = design.instances[inst].origin;
          session.moveInstance(
              inst, {at.x, at.y + design.rows.front().height / 2});
        } else {
          randomMutation(session, design, rng);
        }
      }
      SCOPED_TRACE("report " + std::to_string(report));
      const FailedPinStats got = evaluate();
      sawFailure = sawFailure || got.failedPins > 0;
      sawPartial =
          sawPartial || session.stats().lastPinsRechecked < got.totalPins;
    }
    EXPECT_TRUE(sawFailure);
    EXPECT_TRUE(sawPartial);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SessionEquivalence,
                         ::testing::Values(1, 4, 0));

// A mutation whose new class fails to analyze is undone: the design and the
// session are as before, so the chosen patterns and the next failed-pin
// report still equal a batch run, and that report re-checks no pin.
TEST(OracleSession, FailedMutationIsUndoneAndReportStaysExact) {
  benchgen::Testcase tc = smallCase();
  db::Design& design = *tc.design;
  OracleConfig cfg = withBcaConfig();
  OracleSession session(design, cfg);
  expectFailedPinsMatchBatch(session, design, cfg);

  util::FaultRegistry& faults = util::FaultRegistry::instance();
  ASSERT_TRUE(faults.configure("oracle.class_access"));
  // Find an orientation that gives instance 2 a signature no class has yet;
  // a flip onto an existing class needs no analysis and succeeds. A report
  // before each attempt makes the failing edit the only one since.
  bool threw = false;
  for (const geom::Orient o : {geom::Orient::MY, geom::Orient::R180,
                               geom::Orient::MX, geom::Orient::R0}) {
    const db::Instance before = design.instances[2];
    const std::size_t rowsBefore = session.rows().rows().size();
    session.failedPins();
    try {
      session.setOrient(2, o);
    } catch (const util::FaultInjected&) {
      threw = true;
      EXPECT_EQ(design.instances[2].orient, before.orient);
      EXPECT_EQ(design.instances[2].origin, before.origin);
      EXPECT_EQ(session.rows().rows().size(), rowsBefore);
      break;
    }
  }
  faults.reset();
  ASSERT_TRUE(threw);
  expectMatchesBatch(session, design, cfg);
  expectFailedPinsMatchBatch(session, design, cfg);
  EXPECT_EQ(session.stats().lastPinsRechecked, 0u);

  // The class is analyzed on the next mutation that needs it.
  session.setOrient(2, geom::Orient::MY);
  expectMatchesBatch(session, design, cfg);
  expectFailedPinsMatchBatch(session, design, cfg);
}

// A report diffs the session against the state its previous report
// evaluated, so edits that are reverted before the report, and a move onto
// the instance's own origin, leave no pin to re-check; the report still
// equals a batch run.
TEST(SessionReport, RevertedEditsRecheckNothing) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    benchgen::Testcase tc = smallCase();
    db::Design& design = *tc.design;
    OracleConfig cfg = withBcaConfig();
    cfg.numThreads = threads;
    OracleSession session(design, cfg);
    expectFailedPinsMatchBatch(session, design, cfg);

    Lcg rng{17};
    for (int k = 0; k < 10; ++k) {
      const int inst = static_cast<int>(rng.next() % design.instances.size());
      const db::Instance home = design.instances[inst];
      session.moveInstance(inst, randomSite(design, rng));
      session.setOrient(inst, home.orient == geom::Orient::R0
                                  ? geom::Orient::MY
                                  : geom::Orient::R0);
      session.setOrient(inst, home.orient);
      session.moveInstance(inst, home.origin);
    }
    {
      SCOPED_TRACE("apply then revert");
      expectFailedPinsMatchBatch(session, design, cfg);
      EXPECT_EQ(session.stats().lastPinsRechecked, 0u);
    }

    session.moveInstance(3, design.instances[3].origin);
    SCOPED_TRACE("same-origin move");
    expectFailedPinsMatchBatch(session, design, cfg);
    EXPECT_EQ(session.stats().lastPinsRechecked, 0u);
  }
}

// A move that changes another instance's chosen pattern: that neighbour's
// vias moved too, and the report still equals a batch run.
TEST(SessionReport, NeighbourPatternChangeIsRechecked) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    benchgen::Testcase tc = smallCase();
    db::Design& design = *tc.design;
    OracleConfig cfg = withBcaConfig();
    cfg.numThreads = threads;
    OracleSession session(design, cfg);
    expectFailedPinsMatchBatch(session, design, cfg);

    Lcg rng{23};
    bool found = false;
    for (int trial = 0; trial < 400 && !found; ++trial) {
      const int inst = static_cast<int>(rng.next() % design.instances.size());
      const geom::Point home = design.instances[inst].origin;
      const std::vector<int> before = session.chosenPattern();
      session.moveInstance(inst, randomSite(design, rng));
      std::vector<int> after = session.chosenPattern();
      after[inst] = before[inst];  // the moved instance's own choice aside
      found = after != before;
      if (!found) session.moveInstance(inst, home);
    }
    ASSERT_TRUE(found);
    expectFailedPinsMatchBatch(session, design, cfg);
    EXPECT_GT(session.stats().lastPinsRechecked, 0u);
  }
}

// A change of chosen pattern alone is a change too. The initial build runs
// with every Step-3 pass expired, so each cluster commits its instances'
// cheapest standalone patterns; a same-origin move then re-runs one
// cluster's DP, which changes patterns without moving any instance. The
// report re-checks the pins those patterns reach and equals the batch
// evaluation of the session's state.
TEST(SessionReport, PatternOnlyChangeIsRechecked) {
  benchgen::Testcase tc = smallCase();
  db::Design& design = *tc.design;
  util::FaultRegistry& faults = util::FaultRegistry::instance();
  ASSERT_TRUE(faults.configure("step3.deadline"));
  OracleSession session(design, withBcaConfig());
  faults.reset();
  session.failedPins();

  bool changed = false;
  for (int i = 0; i < static_cast<int>(design.instances.size()) && !changed;
       ++i) {
    const std::vector<int> before = session.chosenPattern();
    session.moveInstance(i, design.instances[i].origin);
    changed = session.chosenPattern() != before;
  }
  ASSERT_TRUE(changed);
  const FailedPinStats got = session.failedPins();
  expectSameFailedPins(got, countFailedPins(design, session.snapshot()));
  EXPECT_GT(session.stats().lastPinsRechecked, 0u);
}

// A chosen via that overhangs its cell reaches pins its cell does not: two
// one-pin cells stacked 400 apart (not abutting, and farther apart than any
// check's halo) whose one via's M2 enclosure reaches 1900 above its cut, so
// the lower cell's via shorts the upper cell's. Moving the lower cell away
// clears the upper pin, whose check only the via's box reached.
TEST(SessionReport, OverhangingViaReachesPinBeyondNeighbours) {
  test::TinyDesign td =
      test::makeTinyDesign({{0, geom::Rect{150, 300, 250, 1100}}});
  td.tech->viaDefs().front().topEnc = {-60, -150, 60, 1900};
  db::Design& design = *td.design;
  db::Instance upper = design.instances[0];
  upper.name = "u2";
  upper.origin = {0, 1600};
  design.instances.push_back(upper);
  design.buildInstanceIndex();
  design.nets.push_back({"n1", {{0, 0, -1}}});
  design.nets.push_back({"n2", {{1, 0, -1}}});
  const OracleConfig cfg = withBcaConfig();
  OracleSession session(design, cfg);
  const FailedPinStats before = expectFailedPinsMatchBatch(session, design, cfg);
  ASSERT_EQ(before.totalPins, 2u);
  ASSERT_EQ(before.failedPins, 2u);

  session.moveInstance(0, {2400, 0});
  const FailedPinStats after = expectFailedPinsMatchBatch(session, design, cfg);
  EXPECT_EQ(after.failedPins, 0u);
  EXPECT_EQ(session.stats().lastPinsRechecked, 2u);
}

// A remove and an add between two reports leave the instance count as it
// was, and beside stacked copies of one instance every instance's state
// can equal its predecessor's record. The pins and their nets still moved:
// the report rebuilds the context and re-checks every pin. The copies sit
// on the last instance, each on nets of its own; the first is removed, the
// second shifts into its slot, and a copy without nets takes the second's.
TEST(SessionReport, RemoveAndAddBesideDuplicatesRecheckEveryPin) {
  benchgen::Testcase tc = smallCase();
  db::Design& design = *tc.design;
  const db::Instance last = design.instances.back();
  for (int k = 0; k < 2; ++k) {
    db::Instance copy = last;
    copy.name = "stacked_" + std::to_string(k);
    design.instances.push_back(copy);
    const int idx = static_cast<int>(design.instances.size()) - 1;
    for (int p = 0; p < static_cast<int>(last.master->pins.size()); ++p) {
      if (last.master->pins[p].isSupply()) continue;
      design.nets.push_back(
          {copy.name + "_" + std::to_string(p), {{idx, p, -1}}});
    }
  }
  design.buildInstanceIndex();
  const OracleConfig cfg = withBcaConfig();
  OracleSession session(design, cfg);
  expectFailedPinsMatchBatch(session, design, cfg);

  const int n = static_cast<int>(design.instances.size());
  db::Instance bare = last;
  bare.name = "stacked_bare";
  session.removeInstance(n - 2);
  session.addInstance(bare);
  const FailedPinStats got = expectFailedPinsMatchBatch(session, design, cfg);
  EXPECT_EQ(session.stats().lastPinsRechecked, got.totalPins);
}

/// The shapes pinView(v) reports for each chosen via v of `ctx` on its
/// three layers, in its instance's bbox and near the via, in report order.
std::vector<std::vector<std::tuple<geom::Rect, int, int, drc::ShapeKind, bool>>>
pinViews(const FailedPinContext& ctx) {
  std::vector<
      std::vector<std::tuple<geom::Rect, int, int, drc::ShapeKind, bool>>>
      out;
  for (int v = 0; v < static_cast<int>(ctx.placed().size()); ++v) {
    const FailedPinContext::PlacedVia& pv = ctx.placed()[v];
    const geom::Rect boxes[] = {ctx.design().instances[pv.inst].bbox(),
                                pv.via->boxAt(pv.loc).bloat(400)};
    auto& shapes = out.emplace_back();
    for (const int layer :
         {pv.via->botLayer, pv.via->cutLayer, pv.via->topLayer}) {
      for (const geom::Rect& box : boxes) {
        ctx.pinView(v).query(layer, box, [&](const drc::Shape& s) {
          shapes.emplace_back(s.rect, s.layer, s.net, s.kind, s.fixed);
        });
      }
    }
  }
  return out;
}

/// `live` and `fresh` list the same pins and chosen vias in the same order,
/// and every chosen via's pinView reports the same shapes in the same order.
void expectSameContext(const FailedPinContext& live,
                       const FailedPinContext& fresh) {
  ASSERT_EQ(live.pins().size(), fresh.pins().size());
  for (std::size_t i = 0; i < live.pins().size(); ++i) {
    const FailedPinContext::PinRef& a = live.pins()[i];
    const FailedPinContext::PinRef& b = fresh.pins()[i];
    ASSERT_EQ(std::tie(a.inst, a.pinPos, a.net, a.placedIdx, a.planar),
              std::tie(b.inst, b.pinPos, b.net, b.placedIdx, b.planar))
        << "pin " << i;
  }
  ASSERT_EQ(live.placed().size(), fresh.placed().size());
  for (std::size_t v = 0; v < live.placed().size(); ++v) {
    const FailedPinContext::PlacedVia& a = live.placed()[v];
    const FailedPinContext::PlacedVia& b = fresh.placed()[v];
    ASSERT_EQ(std::tie(a.inst, a.pinPos, a.via, a.loc, a.net),
              std::tie(b.inst, b.pinPos, b.via, b.loc, b.net))
        << "via " << v;
  }
  EXPECT_EQ(pinViews(live), pinViews(fresh));
}

// The context a session keeps between reports against one built afresh,
// after every step of seeded runs of moves, flips, adds and removes with a
// report after each, at 4 workers: the updated context lists what the
// fresh one lists and its every per-pin view reports the same shapes.
TEST(SessionContext, LiveContextMatchesFreshContext) {
  for (const bool mixed : {false, true}) {
    SCOPED_TRACE(mixed ? "mixed 0.02" : "small case");
    benchgen::Testcase tc = mixed
                                ? benchgen::generate(benchgen::mixedSpec(), 0.02)
                                : smallCase();
    db::Design& design = *tc.design;
    OracleConfig cfg = withBcaConfig();
    cfg.numThreads = 4;
    OracleSession session(design, cfg);
    Lcg rng{43};
    int added = 0;
    for (int step = 0; step < 40; ++step) {
      const std::uint64_t kind = rng.next() % 12;
      const int inst = static_cast<int>(rng.next() % design.instances.size());
      if (kind == 0) {
        db::Instance copy = design.instances[inst];
        copy.name = "live_context_copy_" + std::to_string(added++);
        copy.origin = randomSite(design, rng);
        session.addInstance(copy);
      } else if (kind == 1) {
        session.removeInstance(inst);
      } else {
        randomMutation(session, design, rng);
      }
      SCOPED_TRACE("step " + std::to_string(step));
      const FailedPinStats got = session.failedPins();
      expectSameFailedPins(got, countFailedPins(design, session.snapshot()));
      ASSERT_NE(session.failedPinContext(), nullptr);
      const FailedPinContext fresh(design, session.view(), session.rows());
      expectSameContext(*session.failedPinContext(), fresh);
      if (HasFailure()) return;
    }
  }
}

/// The huge preset at h 0.01, parsed as pao_serve loads it.
struct HugeCase {
  benchgen::HugeTechLib techLib;
  db::Design design;
};

std::unique_ptr<HugeCase> hugeCase(double scale) {
  auto hc = std::make_unique<HugeCase>();
  const benchgen::HugeSpec spec = benchgen::hugeSpec();
  hc->techLib = benchgen::makeHugeTechLib(spec);
  std::ostringstream def;
  benchgen::writeHugeDef(spec, scale, *hc->techLib.tech, *hc->techLib.lib,
                         def);
  hc->design.tech = hc->techLib.tech.get();
  hc->design.lib = hc->techLib.lib.get();
  lefdef::parseDef(def.str(), hc->design);
  return hc;
}

// The deterministic gate of the serve edit path, on the perfbench serve_edit
// trial shape (huge h 0.01; a row-snapped move of a random instance or, every
// 8th trial, a mirror flip, each reverted; a report every 100 mutations):
// every mutation re-splits at most 4 rows, every report after the first
// re-checks at most a quarter of the pins, and every report equals batch.
// Then the cost of a report: one after a single move takes at most 5% of a
// fresh countFailedPins of the same design, best of 3 on each side.
TEST(SessionGate, ServeEditShapeStaysLocal) {
  const std::unique_ptr<HugeCase> hc = hugeCase(0.01);
  db::Design& design = hc->design;
  AccessCache cache;
  OracleConfig cfg = withBcaConfig();
  cfg.numThreads = 1;
  cfg.cache = &cache;
  OracleSession session(design, cfg);
  const std::size_t totalPins =
      expectFailedPinsMatchBatch(session, design, cfg).totalPins;
  ASSERT_GT(totalPins, 0u);

  Lcg rng{0x9e3779b97f4a7c15ULL};
  int mutations = 0;
  const auto mutated = [&] {
    EXPECT_LE(session.stats().lastRowsSplit, 4u) << "mutation " << mutations;
    if (++mutations % 100 != 0) return;
    SCOPED_TRACE("report after " + std::to_string(mutations));
    expectFailedPinsMatchBatch(session, design, cfg);
    EXPECT_LE(session.stats().lastPinsRechecked * 4, totalPins);
  };
  for (int trial = 1; 2 * trial <= 300; ++trial) {
    const int inst = static_cast<int>(rng.next() % design.instances.size());
    const db::Instance home = design.instances[inst];
    if (trial % 8 == 0) {
      session.setOrient(inst, home.orient == geom::Orient::R0
                                  ? geom::Orient::MY
                                  : geom::Orient::R0);
      mutated();
      session.setOrient(inst, home.orient);
      mutated();
      continue;
    }
    const db::Row& row = design.rows[rng.next() % design.rows.size()];
    const std::uint64_t sites = static_cast<std::uint64_t>(
        std::max(1, row.numSites - 4));
    session.moveInstance(
        inst, {row.origin.x + static_cast<geom::Coord>(rng.next() % sites) *
                                  row.siteWidth,
               row.origin.y});
    mutated();
    session.moveInstance(inst, home.origin);
    mutated();
  }
  EXPECT_EQ(mutations, 300);

  const auto seconds = [](const auto& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  double report = std::numeric_limits<double>::infinity();
  double fresh = report;
  for (int rep = 0; rep < 3; ++rep) {
    const int inst = static_cast<int>(rng.next() % design.instances.size());
    const geom::Point home = design.instances[inst].origin;
    const db::Row& row = design.rows[rng.next() % design.rows.size()];
    session.moveInstance(inst, {row.origin.x + 4 * row.siteWidth,
                                row.origin.y});
    report = std::min(report, seconds([&] { session.failedPins(); }));
    const OracleResult res = session.snapshot();
    fresh = std::min(fresh, seconds([&] { countFailedPins(design, res); }));
    session.moveInstance(inst, home);
    session.failedPins();
  }
  EXPECT_LE(report, 0.05 * fresh)
      << "post-move report " << report * 1e3 << " ms, fresh evaluation "
      << fresh * 1e3 << " ms";
}

TEST(OracleSession, SingleMoveRecomputesOnlyDirtyClusters) {
  benchgen::Testcase tc = smallCase();
  AccessCache cache;
  OracleConfig cfg = withBcaConfig();
  cfg.cache = &cache;
  OracleSession session(*tc.design, cfg);
  const std::size_t fullDp = session.stats().clusterDpRuns;

  const db::Row& row = tc.design->rows.front();
  session.moveInstance(3, geom::Point{row.origin.x + 7 * row.siteWidth,
                                      row.origin.y});

  EXPECT_GE(session.stats().lastDirtyClusters, 1u);
  EXPECT_LT(session.stats().lastDirtyClusters,
            session.stats().lastClusterCount);
  // The move re-ran far fewer cluster DPs than the initial full build.
  EXPECT_LT(session.stats().clusterDpRuns - fullDp, fullDp);
  expectMatchesBatch(session, *tc.design, cfg);
}

// snapshot()'s four timings describe the initial build: neither a mutation
// that analyzes a new class nor one that re-runs cluster DPs moves them.
TEST(SessionTimings, MutationsLeaveBuildTimingsUnchanged) {
  benchgen::Testcase tc = smallCase();
  OracleSession session(*tc.design, withBcaConfig());
  const OracleResult built = session.snapshot();
  EXPECT_GT(built.wallSeconds, 0.0);
  EXPECT_GT(built.step1CpuSeconds, 0.0);

  // An orientation flip that lands an instance in a new class.
  const std::size_t classes = session.unique().classes.size();
  for (int i = 0; i < static_cast<int>(tc.design->instances.size()) &&
                  session.unique().classes.size() == classes;
       ++i) {
    const geom::Orient cur = tc.design->instances[i].orient;
    session.setOrient(i, cur == geom::Orient::R0 ? geom::Orient::MX
                                                 : geom::Orient::R0);
  }
  ASSERT_GT(session.unique().classes.size(), classes);

  // A move that re-runs cluster DPs.
  const std::size_t dpRuns = session.stats().clusterDpRuns;
  const db::Row& row = tc.design->rows.front();
  session.moveInstance(3, geom::Point{row.origin.x + 7 * row.siteWidth,
                                      row.origin.y});
  ASSERT_GT(session.stats().clusterDpRuns, dpRuns);

  const OracleResult now = session.snapshot();
  EXPECT_EQ(now.wallSeconds, built.wallSeconds);
  EXPECT_EQ(now.step1CpuSeconds, built.step1CpuSeconds);
  EXPECT_EQ(now.step2CpuSeconds, built.step2CpuSeconds);
  EXPECT_EQ(now.step3CpuSeconds, built.step3CpuSeconds);
}

TEST(OracleSession, BuildGraphHasOneNodePerClassAndCluster) {
  const benchgen::Testcase tc = smallCase();
  const db::Design& design = *tc.design;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    for (OracleConfig cfg : {withBcaConfig(), withoutBcaConfig()}) {
      cfg.numThreads = threads;
      const OracleSession session(design, cfg);
      EXPECT_GT(session.stats().lastClusterCount, 0u);
      EXPECT_EQ(session.stats().graphJobs,
                session.unique().classes.size() +
                    session.stats().lastClusterCount);
    }
    // The legacy baseline has no Step-3 nodes.
    OracleConfig cfg = legacyConfig();
    cfg.numThreads = threads;
    const OracleSession legacy(design, cfg);
    EXPECT_EQ(legacy.stats().graphJobs, legacy.unique().classes.size());
  }
}

TEST(OracleSession, AddAndRemoveInstanceMatchBatch) {
  benchgen::Testcase tc = smallCase();
  AccessCache cache;
  OracleConfig cfg = withBcaConfig();
  cfg.cache = &cache;
  OracleSession session(*tc.design, cfg);

  // Clone an existing instance into a fresh row slot.
  db::Instance clone = tc.design->instances[0];
  clone.name = "session_test_clone";
  const db::Row& row = tc.design->rows.back();
  clone.origin = geom::Point{row.origin.x + 3 * row.siteWidth, row.origin.y};
  clone.orient = row.orient;
  const int idx = session.addInstance(clone);
  EXPECT_EQ(idx, static_cast<int>(tc.design->instances.size()) - 1);
  expectMatchesBatch(session, *tc.design, cfg);

  session.removeInstance(idx);
  expectMatchesBatch(session, *tc.design, cfg);

  // Removing a long-standing instance renumbers everything above it.
  session.removeInstance(4);
  expectMatchesBatch(session, *tc.design, cfg);
}

TEST(OracleSession, ClassRevivalAfterLastMemberLeaves) {
  benchgen::Testcase tc = smallCase();
  OracleConfig cfg = withBcaConfig();
  OracleSession session(*tc.design, cfg);

  // Drive instance 2 through a one-of-a-kind signature (unique orientation
  // at its row) and back: the emptied class must be revived by signature,
  // and the final state must match a batch run.
  const geom::Orient orig = tc.design->instances[2].orient;
  session.setOrient(2, orig == geom::Orient::R0 ? geom::Orient::MX
                                                : geom::Orient::R0);
  expectMatchesBatch(session, *tc.design, cfg);
  session.setOrient(2, orig);
  expectMatchesBatch(session, *tc.design, cfg);
}

TEST(OracleSession, ReadOnlySessionRejectsMutation) {
  const benchgen::Testcase tc = smallCase();
  const db::Design& design = *tc.design;
  OracleSession session(design, withBcaConfig());
  EXPECT_THROW(session.moveInstance(0, geom::Point{0, 0}), std::logic_error);
  EXPECT_THROW(session.removeInstance(0), std::logic_error);
}

TEST(OracleSession, OutOfBandDesignMutationDetected) {
  benchgen::Testcase tc = smallCase();
  OracleSession session(*tc.design, withBcaConfig());
  // An edit through the Design mutation API behind the session's back bumps
  // the revision counter, which the next session mutation must reject.
  tc.design->moveInstance(0, tc.design->instances[0].origin);
  EXPECT_THROW(session.moveInstance(1, tc.design->instances[1].origin),
               std::logic_error);
}

TEST(OracleSession, SnapshotEqualsBatchByteForByte) {
  const benchgen::Testcase tc = smallCase();
  const db::Design& design = *tc.design;
  OracleConfig cfg = withBcaConfig();
  const OracleSession session(design, cfg);
  const OracleResult snap = session.snapshot();
  PinAccessOracle oracle(design, cfg);
  const OracleResult batch = oracle.run();
  ASSERT_EQ(snap.classes.size(), batch.classes.size());
  EXPECT_EQ(snap.chosenPattern, batch.chosenPattern);
  for (std::size_t c = 0; c < snap.classes.size(); ++c) {
    ASSERT_EQ(snap.classes[c].pinAps.size(), batch.classes[c].pinAps.size());
    for (std::size_t p = 0; p < snap.classes[c].pinAps.size(); ++p) {
      ASSERT_EQ(snap.classes[c].pinAps[p].size(),
                batch.classes[c].pinAps[p].size());
      for (std::size_t a = 0; a < snap.classes[c].pinAps[p].size(); ++a) {
        EXPECT_EQ(snap.classes[c].pinAps[p][a].loc,
                  batch.classes[c].pinAps[p][a].loc);
      }
    }
  }
}

/// Field-by-field equality of two classes' access, with no translation.
void expectSameClassAccess(const ClassAccess& a, const ClassAccess& b,
                           std::size_t cls) {
  SCOPED_TRACE("class " + std::to_string(cls));
  ASSERT_EQ(a.pinAps.size(), b.pinAps.size());
  for (std::size_t p = 0; p < a.pinAps.size(); ++p) {
    ASSERT_EQ(a.pinAps[p].size(), b.pinAps[p].size());
    for (std::size_t i = 0; i < a.pinAps[p].size(); ++i) {
      const AccessPoint& x = a.pinAps[p][i];
      const AccessPoint& y = b.pinAps[p][i];
      EXPECT_EQ(x.loc, y.loc);
      EXPECT_EQ(x.layer, y.layer);
      EXPECT_EQ(x.prefType, y.prefType);
      EXPECT_EQ(x.nonPrefType, y.nonPrefType);
      EXPECT_EQ(x.dirs, y.dirs);
      ASSERT_EQ(x.viaIdx.size(), y.viaIdx.size());
      for (std::size_t v = 0; v < x.viaIdx.size(); ++v) {
        EXPECT_EQ(x.viaIdx[v], y.viaIdx[v]);
      }
    }
  }
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (std::size_t k = 0; k < a.patterns.size(); ++k) {
    EXPECT_EQ(a.patterns[k].apIdx, b.patterns[k].apIdx);
    EXPECT_EQ(a.patterns[k].cost, b.patterns[k].cost);
    EXPECT_EQ(a.patterns[k].validated, b.patterns[k].validated);
  }
  EXPECT_EQ(a.pinOrder, b.pinOrder);
}

/// The first class with at least two members (its representative can leave
/// without emptying it).
int sharedClass(const db::UniqueInstances& unique) {
  for (std::size_t c = 0; c < unique.classes.size(); ++c) {
    if (unique.classes[c].members.size() >= 2 &&
        !unique.classes[c].master->signalPinIndices().empty()) {
      return static_cast<int>(c);
    }
  }
  return -1;
}

/// snapshot().classes after a mutation equals `before` for every class that
/// existed before and still has members.
void expectPopulatedClassesUnchanged(const OracleSession& session,
                                     const OracleResult& before) {
  const OracleResult after = session.snapshot();
  for (std::size_t c = 0; c < before.classes.size(); ++c) {
    if (after.unique.classes[c].members.empty()) continue;
    expectSameClassAccess(after.classes[c], before.classes[c], c);
  }
}

TEST(OracleSession, SnapshotCopiesTheOriginRelativeClasses) {
  const benchgen::Testcase tc = smallCase();
  const OracleSession session(*tc.design, withBcaConfig());
  const OracleResult snap = session.snapshot();
  ASSERT_EQ(snap.classes.size(), session.unique().classes.size());
  for (std::size_t c = 0; c < snap.classes.size(); ++c) {
    expectSameClassAccess(snap.classes[c],
                          session.classAccess(static_cast<int>(c)), c);
  }
}

TEST(OracleSession, RepresentativeMoveLeavesSnapshotClassesUnchanged) {
  benchgen::Testcase tc = smallCase();
  OracleSession session(*tc.design, withBcaConfig());
  const OracleResult before = session.snapshot();
  const int cls = sharedClass(session.unique());
  ASSERT_GE(cls, 0);
  const int rep = session.unique().classes[cls].representative;
  const db::Row& row = tc.design->rows.front();
  session.moveInstance(
      rep, geom::Point{row.origin.x + 7 * row.siteWidth, row.origin.y});
  expectPopulatedClassesUnchanged(session, before);
}

TEST(OracleSession, RepresentativeRemovalLeavesSnapshotClassesUnchanged) {
  benchgen::Testcase tc = smallCase();
  OracleSession session(*tc.design, withBcaConfig());
  const OracleResult before = session.snapshot();
  const int cls = sharedClass(session.unique());
  ASSERT_GE(cls, 0);
  const int rep = session.unique().classes[cls].representative;
  session.removeInstance(rep);
  expectPopulatedClassesUnchanged(session, before);
}

// The index under seeded random move/orient/add/remove sequences equals a
// fresh serial extraction of the mutated design, up to class renumbering:
// each populated class matches its reference class (signature, members,
// representative) and classOf agrees. Class indices never move, so a class
// emptied and later repopulated is revived at its old index.
TEST(UniqueInstanceIndex, MutationsMatchReference) {
  const auto check = [](db::Design& design, std::uint64_t seed, int steps,
                         int& revivals) {
    db::UniqueInstanceIndex index(design, 1);
    std::vector<db::Signature> sigs;  // by class index, as first seen
    std::vector<bool> wasEmpty;
    int added = 0;
    Lcg rng{seed};
    for (int step = 0; step <= steps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const int inst =
          static_cast<int>(rng.next() % design.instances.size());
      switch (step == 0 ? -1 : static_cast<int>(rng.next() % 8)) {
        case -1:
          break;  // the initial build
        case 0: {
          db::Instance clone = design.instances[inst];
          clone.name = "index_test_clone_" + std::to_string(added++);
          const db::Row& row = design.rows[rng.next() % design.rows.size()];
          clone.origin = {row.origin.x + static_cast<geom::Coord>(
                                             rng.next() % 64) * row.siteWidth,
                          row.origin.y};
          index.add(design.addInstance(std::move(clone)));
          break;
        }
        case 1:
          index.remove(inst);
          design.removeInstance(inst);
          break;
        case 2:
        case 3:
          design.setInstanceOrient(inst, design.instances[inst].orient ==
                                                 geom::Orient::R0
                                             ? geom::Orient::MX
                                             : geom::Orient::R0);
          index.update(inst);
          break;
        default: {
          // Back and forth by a few dbu, so signatures recur.
          const geom::Coord d =
              static_cast<geom::Coord>(rng.next() % 5) * 10 - 20;
          const geom::Point o = design.instances[inst].origin;
          design.moveInstance(inst, {o.x + d, o.y - d});
          index.update(inst);
          break;
        }
      }

      const db::UniqueInstances ref =
          reference::extractUniqueInstances(design);
      const db::UniqueInstances& got = index.classes();
      ASSERT_EQ(got.classOf.size(), design.instances.size());
      // Stable indices: a class keeps its signature for life, and no two
      // classes share one (so a signature that returns revives its class).
      ASSERT_GE(got.classes.size(), sigs.size());
      std::set<db::Signature> distinct;
      std::size_t populated = 0;
      for (std::size_t c = 0; c < got.classes.size(); ++c) {
        const db::Signature& sig = got.classes[c];
        if (c < sigs.size()) {
          EXPECT_TRUE(sig == sigs[c]) << "class " << c << " changed key";
        } else {
          sigs.push_back(sig);
          wasEmpty.push_back(false);
        }
        EXPECT_TRUE(distinct.insert(sig).second) << "duplicate class " << c;
        const bool empty = got.classes[c].members.empty();
        if (wasEmpty[c] && !empty) ++revivals;
        wasEmpty[c] = empty;
        populated += empty ? 0 : 1;
        if (empty) {
          EXPECT_EQ(got.classes[c].representative, -1);
        }
      }
      EXPECT_EQ(populated, ref.classes.size());
      for (const db::UniqueInstance& want : ref.classes) {
        const int c = got.classOf[want.representative];
        ASSERT_GE(c, 0);
        EXPECT_EQ(got.classes[c], want);
        for (const int m : want.members) EXPECT_EQ(got.classOf[m], c);
      }
    }
  };

  benchgen::Testcase small = smallCase();
  int revivals = 0;
  check(*small.design, 23, 120, revivals);
  EXPECT_GT(revivals, 0);
  benchgen::Testcase mixed =
      benchgen::generate(benchgen::mixedSpec(), 0.02);
  revivals = 0;
  check(*mixed.design, 29, 60, revivals);
  EXPECT_GT(revivals, 0);
}

}  // namespace
}  // namespace pao::core
