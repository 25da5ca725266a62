// OracleSession tests: the incremental oracle must stay exactly equivalent
// to a fresh batch run after any mutation sequence (the refactor's
// load-bearing invariant), while recomputing only dirty clusters.
#include "pao/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "benchgen/huge.hpp"
#include "benchgen/testcase.hpp"
#include "lefdef/stream.hpp"
#include "pao/evaluate.hpp"
#include "pao/oracle.hpp"
#include "reference.hpp"
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

/// One random row-snapped move or orientation flip through the session.
void randomMutation(OracleSession& session, db::Design& design, Lcg& rng) {
  const int inst = static_cast<int>(rng.next() % design.instances.size());
  if (rng.next() % 4 == 0) {
    const geom::Orient cur = design.instances[inst].orient;
    session.setOrient(inst, cur == geom::Orient::R0 ? geom::Orient::MX
                                                    : geom::Orient::R0);
    return;
  }
  const db::Row& row = design.rows[rng.next() % design.rows.size()];
  const std::uint64_t sites =
      row.numSites > 0 ? static_cast<std::uint64_t>(row.numSites) : 1;
  session.moveInstance(
      inst, geom::Point{row.origin.x + static_cast<geom::Coord>(
                                           rng.next() % sites) *
                                           row.siteWidth,
                        row.origin.y});
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
// track patterns end; see ROADMAP "Class access at track-range ends").
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
// report (a full re-check after the exception) still equal a batch run.
TEST(OracleSession, FailedMutationIsUndoneAndReportStaysExact) {
  benchgen::Testcase tc = smallCase();
  db::Design& design = *tc.design;
  OracleConfig cfg = withBcaConfig();
  OracleSession session(design, cfg);
  expectFailedPinsMatchBatch(session, design, cfg);

  util::FaultRegistry& faults = util::FaultRegistry::instance();
  ASSERT_TRUE(faults.configure("oracle.class_access"));
  // Find an orientation that gives instance 2 a signature no class has yet;
  // a flip onto an existing class needs no analysis and succeeds.
  bool threw = false;
  for (const geom::Orient o : {geom::Orient::MY, geom::Orient::R180,
                               geom::Orient::MX, geom::Orient::R0}) {
    const db::Instance before = design.instances[2];
    const std::size_t rowsBefore = session.rows().rows().size();
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
  const FailedPinStats after = expectFailedPinsMatchBatch(session, design, cfg);
  EXPECT_EQ(session.stats().lastPinsRechecked, after.totalPins);

  // The class is analyzed on the next mutation that needs it.
  session.setOrient(2, geom::Orient::MY);
  expectMatchesBatch(session, design, cfg);
  expectFailedPinsMatchBatch(session, design, cfg);
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

}  // namespace
}  // namespace pao::core
