// Deterministic fault injection: spec parsing, trigger modes (always /
// Nth / from-Nth / probabilistic), macro gating, and the oracle-level
// contracts — a recovered or never-fired fault leaves the result identical
// to a fault-free run, a firing fault under keepGoing degrades gracefully,
// and the same fault under strict mode surfaces as util::FaultInjected.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "benchgen/testcase.hpp"
#include "pao/access_cache.hpp"
#include "pao/oracle.hpp"
#include "util/fault.hpp"

namespace pao {
namespace {

using util::FaultRegistry;

// The registry is process-global: every test disarms it on the way out so
// no other suite ever sees a leftover fault.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::instance().reset(); }

  FaultRegistry& reg() { return FaultRegistry::instance(); }
};

// ------------------------------------------------------------ spec parsing

TEST_F(FaultTest, EmptySpecDisarms) {
  ASSERT_TRUE(reg().configure("a.b"));
  EXPECT_TRUE(reg().armed());
  ASSERT_TRUE(reg().configure(""));
  EXPECT_FALSE(reg().armed());
}

TEST_F(FaultTest, ValidSpecsParse) {
  std::string error;
  EXPECT_TRUE(reg().configure("cache.read", &error)) << error;
  EXPECT_TRUE(reg().configure("a:3", &error)) << error;
  EXPECT_TRUE(reg().configure("a:3+", &error)) << error;
  EXPECT_TRUE(reg().configure("a:p0.5", &error)) << error;
  EXPECT_TRUE(reg().configure("a:p0.5:s7", &error)) << error;
  EXPECT_TRUE(reg().configure("a,b:2,c:p1", &error)) << error;
}

TEST_F(FaultTest, MalformedSpecsRejectAndDisarm) {
  std::string error;
  for (const char* bad : {":", "a:", "a:0", "a:x", "a:pz", "a:p2",
                          "a:p-0.5", "a:p0.5:sx", "a:1:2"}) {
    SCOPED_TRACE(bad);
    ASSERT_TRUE(reg().configure("ok.point"));
    error.clear();
    EXPECT_FALSE(reg().configure(bad, &error));
    EXPECT_FALSE(error.empty());
    // A failed configure never leaves the registry half-armed.
    EXPECT_FALSE(reg().armed());
  }
}

// ----------------------------------------------------------- trigger modes

TEST_F(FaultTest, AlwaysFires) {
  ASSERT_TRUE(reg().configure("pt"));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(reg().shouldFire("pt"));
  EXPECT_EQ(reg().hits("pt"), 5u);
  EXPECT_EQ(reg().fired("pt"), 5u);
  EXPECT_FALSE(reg().shouldFire("other.point"));
}

TEST_F(FaultTest, NthFiresExactlyOnce) {
  ASSERT_TRUE(reg().configure("pt:3"));
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(reg().shouldFire("pt"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));
  EXPECT_EQ(reg().fired("pt"), 1u);
}

TEST_F(FaultTest, FromNthFiresFromThereOn) {
  ASSERT_TRUE(reg().configure("pt:3+"));
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(reg().shouldFire("pt"));
  EXPECT_EQ(fired,
            (std::vector<bool>{false, false, true, true, true, true}));
}

TEST_F(FaultTest, ProbabilisticIsDeterministicInSeedAndHitIndex) {
  const auto sequence = [&](const char* spec) {
    EXPECT_TRUE(reg().configure(spec));
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(reg().shouldFire("pt"));
    return fired;
  };
  const std::vector<bool> a = sequence("pt:p0.3:s7");
  const std::vector<bool> b = sequence("pt:p0.3:s7");
  EXPECT_EQ(a, b);  // replay is exact
  const std::vector<bool> c = sequence("pt:p0.3:s8");
  EXPECT_NE(a, c);  // the seed matters
  // p0.3 over 200 hits fires a plausible fraction — not never, not always.
  const std::size_t count = std::count(a.begin(), a.end(), true);
  EXPECT_GT(count, 20u);
  EXPECT_LT(count, 140u);
}

TEST_F(FaultTest, ProbabilityBoundsFireAlwaysAndNever) {
  ASSERT_TRUE(reg().configure("pt:p1"));
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(reg().shouldFire("pt"));
  ASSERT_TRUE(reg().configure("pt:p0"));
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(reg().shouldFire("pt"));
}

// ------------------------------------------------------------- the macros

TEST_F(FaultTest, MacrosAreInertWhileDisarmed) {
  EXPECT_FALSE(PAO_FAULT_POINT("pt"));
  EXPECT_NO_THROW(PAO_FAULT_INJECT("pt"));
  // An unarmed hit is not even counted: the armed() fast path short-circuits
  // before shouldFire.
  EXPECT_EQ(reg().hits("pt"), 0u);
}

TEST_F(FaultTest, InjectThrowsTypedExceptionWithPointName) {
  ASSERT_TRUE(reg().configure("oracle.class_access"));
  try {
    PAO_FAULT_INJECT("oracle.class_access");
    FAIL() << "expected FaultInjected";
  } catch (const util::FaultInjected& e) {
    EXPECT_EQ(e.point, "oracle.class_access");
    EXPECT_STREQ(e.what(), "injected fault at 'oracle.class_access'");
  }
}

// --------------------------------------------------- oracle-level contract

class OracleFaultTest : public FaultTest {
 protected:
  /// The class-fault cases run at one worker, a fixed pool and the
  /// hardware default.
  static constexpr int kThreadCounts[] = {1, 4, 0};

  void SetUp() override {
    tc_ = std::make_unique<benchgen::Testcase>(
        benchgen::generate(benchgen::ispd18Suite()[0], /*scale=*/0.01));
  }

  core::OracleResult run(const core::OracleConfig& cfg) {
    return core::PinAccessOracle(*tc_->design, cfg).run();
  }

  static void expectSameAccess(const core::OracleResult& a,
                               const core::OracleResult& b) {
    EXPECT_EQ(a.chosenPattern, b.chosenPattern);
    ASSERT_EQ(a.classes.size(), b.classes.size());
    for (std::size_t c = 0; c < b.classes.size(); ++c) {
      SCOPED_TRACE("class " + std::to_string(c));
      EXPECT_EQ(a.classes[c].pinOrder, b.classes[c].pinOrder);
      ASSERT_EQ(a.classes[c].patterns.size(), b.classes[c].patterns.size());
      for (std::size_t p = 0; p < b.classes[c].patterns.size(); ++p) {
        EXPECT_EQ(a.classes[c].patterns[p].apIdx,
                  b.classes[c].patterns[p].apIdx);
        EXPECT_EQ(a.classes[c].patterns[p].cost,
                  b.classes[c].patterns[p].cost);
      }
    }
  }

  std::unique_ptr<benchgen::Testcase> tc_;
};

TEST_F(OracleFaultTest, NeverFiringFaultIsExactlyBaseline) {
  const core::OracleResult baseline = run(core::withBcaConfig());
  ASSERT_TRUE(reg().configure("oracle.class_access:100000"));
  core::OracleConfig cfg = core::withBcaConfig();
  cfg.keepGoing = true;
  const core::OracleResult faulted = run(cfg);
  EXPECT_TRUE(faulted.degraded.empty());
  expectSameAccess(baseline, faulted);
}

TEST_F(OracleFaultTest, RecoveredCacheFaultIsExactlyBaseline) {
  // Prime a cache from a clean run, then fault its reader: the cache is a
  // pure accelerator, so losing it must not change any result.
  const core::OracleResult baseline = run(core::withBcaConfig());
  core::AccessCache primed;
  core::OracleConfig fill = core::withBcaConfig();
  fill.cache = &primed;
  run(fill);
  const std::string text = primed.save(*tc_->tech, *tc_->lib);

  ASSERT_TRUE(reg().configure("cache.read"));
  core::AccessCache faulty;
  std::string error;
  EXPECT_EQ(faulty.load(text, *tc_->tech, *tc_->lib, &error), 0u);
  EXPECT_NE(error.find("cache.read"), std::string::npos);

  // The run proceeds with the (empty) cache and matches the baseline.
  core::OracleConfig cfg = core::withBcaConfig();
  cfg.cache = &faulty;
  cfg.keepGoing = true;
  const core::OracleResult rerun = run(cfg);
  EXPECT_TRUE(rerun.degraded.empty());
  expectSameAccess(baseline, rerun);
}

TEST_F(OracleFaultTest, ClassFaultDegradesUnderKeepGoing) {
  ASSERT_TRUE(reg().configure("oracle.class_access"));
  core::OracleConfig cfg = core::withBcaConfig();
  cfg.keepGoing = true;
  const core::OracleResult res = run(cfg);  // one worker
  ASSERT_FALSE(res.degraded.empty());
  for (const core::DegradedEvent& ev : res.degraded) {
    EXPECT_EQ(ev.kind, "class_fallback");
    EXPECT_GE(ev.cls, 0);
    EXPECT_NE(ev.detail.find("oracle.class_access"), std::string::npos);
  }
  // Every class with signal pins took the legacy fallback; the flow still
  // delivered a full-size result.
  EXPECT_EQ(res.chosenPattern.size(), tc_->design->instances.size());
  // Canonical ordering: sorted by class index.
  for (std::size_t i = 1; i < res.degraded.size(); ++i) {
    EXPECT_LE(res.degraded[i - 1].cls, res.degraded[i].cls);
  }
  // Every class faults whatever the schedule, so the degraded result does
  // not depend on the thread count.
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    cfg.numThreads = threads;
    const core::OracleResult again = run(cfg);
    ASSERT_EQ(again.degraded.size(), res.degraded.size());
    for (std::size_t i = 0; i < res.degraded.size(); ++i) {
      EXPECT_EQ(again.degraded[i].kind, res.degraded[i].kind);
      EXPECT_EQ(again.degraded[i].detail, res.degraded[i].detail);
      EXPECT_EQ(again.degraded[i].cls, res.degraded[i].cls);
    }
    expectSameAccess(res, again);
  }
}

TEST_F(OracleFaultTest, ClassFaultThrowsUnderStrict) {
  ASSERT_TRUE(reg().configure("oracle.class_access"));
  core::OracleConfig cfg = core::withBcaConfig();  // keepGoing = false
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    cfg.numThreads = threads;
    EXPECT_THROW(run(cfg), util::FaultInjected);
  }
}

TEST_F(OracleFaultTest, SingleClassFaultDegradesOnlyThatClass) {
  const core::OracleResult baseline = run(core::withBcaConfig());
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    // Re-arming restarts the hit count. Which class takes the first hit
    // depends on the schedule at more than one thread.
    ASSERT_TRUE(reg().configure("oracle.class_access:1"));
    core::OracleConfig cfg = core::withBcaConfig();
    cfg.keepGoing = true;
    cfg.numThreads = threads;
    const core::OracleResult res = run(cfg);
    ASSERT_EQ(res.degraded.size(), 1u);
    const int cls = res.degraded[0].cls;
    // Untouched classes are bit-identical to the baseline.
    ASSERT_EQ(res.classes.size(), baseline.classes.size());
    for (std::size_t c = 0; c < res.classes.size(); ++c) {
      if (static_cast<int>(c) == cls) continue;
      SCOPED_TRACE("class " + std::to_string(c));
      EXPECT_EQ(res.classes[c].pinOrder, baseline.classes[c].pinOrder);
      EXPECT_EQ(res.classes[c].patterns.size(),
                baseline.classes[c].patterns.size());
    }
  }
}

TEST_F(OracleFaultTest, Step3DeadlineFaultCommitsBestSoFar) {
  ASSERT_TRUE(reg().configure("step3.deadline"));
  core::OracleConfig cfg = core::withBcaConfig();
  cfg.keepGoing = true;
  const core::OracleResult res = run(cfg);
  ASSERT_FALSE(res.degraded.empty());
  bool sawBudget = false;
  for (const core::DegradedEvent& ev : res.degraded) {
    if (ev.kind == "step3_budget") sawBudget = true;
  }
  EXPECT_TRUE(sawBudget);
  // Budget expiry still commits a pattern choice for every instance whose
  // class has patterns.
  ASSERT_EQ(res.chosenPattern.size(), tc_->design->instances.size());
  for (std::size_t i = 0; i < res.chosenPattern.size(); ++i) {
    const int cls = res.unique.classOf[i];
    if (!res.classes[cls].patterns.empty()) {
      EXPECT_GE(res.chosenPattern[i], 0) << "instance " << i;
    }
  }
}

}  // namespace
}  // namespace pao
