// Access cache + multi-threaded oracle tests: placement-loop reuse and the
// paper's multi-threading future-work item.
#include "pao/access_cache.hpp"

#include <gtest/gtest.h>

#include "benchgen/testcase.hpp"
#include "pao/evaluate.hpp"
#include "pao/oracle.hpp"

namespace pao::core {
namespace {

benchgen::Testcase smallCase() {
  benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
  spec.numCells = 200;
  spec.numNets = 100;
  return benchgen::generate(spec, 1.0);
}

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

TEST(AccessCache, SecondRunHitsEveryClass) {
  const benchgen::Testcase tc = smallCase();
  AccessCache cache;
  OracleConfig cfg = withBcaConfig();
  cfg.cache = &cache;

  PinAccessOracle first(*tc.design, cfg);
  const OracleResult r1 = first.run();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_EQ(cache.size(), cache.misses());

  PinAccessOracle second(*tc.design, cfg);
  const OracleResult r2 = second.run();
  EXPECT_EQ(cache.misses(), cache.size());  // no new misses
  EXPECT_GT(cache.hits(), 0u);
  // Cached Steps 1-2 contribute no fresh per-class time.
  EXPECT_EQ(r2.step1CpuSeconds, 0.0);
  EXPECT_EQ(r2.step2CpuSeconds, 0.0);
  EXPECT_TRUE(sameAccess(r1, r2, *tc.design));
}

TEST(AccessCache, CachedResultsSurvivePlacementMove) {
  benchgen::Testcase tc = smallCase();
  AccessCache cache;
  OracleConfig cfg = withBcaConfig();
  cfg.cache = &cache;

  PinAccessOracle warm(*tc.design, cfg);
  const FailedPinStats before =
      countFailedPins(*tc.design, warm.run());

  // Move one instance by exactly one track period in x: same signature,
  // everything reusable.
  db::Instance& inst = tc.design->instances[5];
  const db::Layer* m2 = tc.design->tech->findLayer("M2");
  inst.origin.x += m2->pitch;
  const std::size_t missesBefore = cache.misses();

  PinAccessOracle moved(*tc.design, cfg);
  const OracleResult res = moved.run();
  EXPECT_EQ(cache.misses(), missesBefore);   // all hits: nothing recomputed
  const DirtyApStats dirty = countDirtyAps(*tc.design, res);
  EXPECT_EQ(dirty.dirtyAps, 0u);
  const FailedPinStats after = countFailedPins(*tc.design, res);
  EXPECT_EQ(after.failedPins, before.failedPins);
}

TEST(AccessCache, TranslateShiftsAllAccessPoints) {
  ClassAccess ca;
  ca.pinAps.resize(2);
  AccessPoint ap;
  ap.loc = {100, 200};
  ca.pinAps[0].push_back(ap);
  ap.loc = {300, 400};
  ca.pinAps[1].push_back(ap);
  const ClassAccess moved = AccessCache::translate(ca, {10, -20});
  EXPECT_EQ(moved.pinAps[0][0].loc, geom::Point(110, 180));
  EXPECT_EQ(moved.pinAps[1][0].loc, geom::Point(310, 380));
}

TEST(AccessCache, ClearResets) {
  AccessCache cache;
  cache.store({nullptr, geom::Orient::R0, {}}, ClassAccess{});
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(AccessCache, SaveLoadRoundTrip) {
  const benchgen::Testcase tc = smallCase();
  AccessCache cache;
  OracleConfig cfg = withBcaConfig();
  cfg.cache = &cache;
  PinAccessOracle warm(*tc.design, cfg);
  const OracleResult r1 = warm.run();

  const std::string text = cache.save(*tc.tech, *tc.lib);
  EXPECT_FALSE(text.empty());

  AccessCache restored;
  const std::size_t loaded = restored.load(text, *tc.tech, *tc.lib);
  EXPECT_EQ(loaded, cache.size());
  EXPECT_EQ(restored.size(), cache.size());

  // A run against the restored cache is all hits and produces the same
  // access as the original.
  OracleConfig cfg2 = withBcaConfig();
  cfg2.cache = &restored;
  PinAccessOracle cold(*tc.design, cfg2);
  const OracleResult r2 = cold.run();
  EXPECT_EQ(restored.misses(), 0u);
  EXPECT_TRUE(sameAccess(r1, r2, *tc.design));
}

TEST(AccessCache, LoadRejectsGarbage) {
  const benchgen::Testcase tc = smallCase();
  AccessCache cache;
  EXPECT_EQ(cache.load("not a cache file", *tc.tech, *tc.lib), 0u);
  EXPECT_EQ(cache.load("", *tc.tech, *tc.lib), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(AccessCache, LoadRejectsForeignLibrary) {
  const benchgen::Testcase tc = smallCase();
  AccessCache cache;
  OracleConfig cfg = withBcaConfig();
  cfg.cache = &cache;
  PinAccessOracle warm(*tc.design, cfg);
  warm.run();
  const std::string text = cache.save(*tc.tech, *tc.lib);

  // A different library (missing every master) has a different fingerprint:
  // the whole cache is rejected with a reason.
  db::Library empty;
  AccessCache other;
  std::string error;
  EXPECT_EQ(other.load(text, *tc.tech, empty, &error), 0u);
  EXPECT_FALSE(error.empty());
}

TEST(AccessCache, SaveIsByteStableAcrossIndependentRuns) {
  // Two independently generated testcases and independently built caches
  // must serialize byte-identically — entries are ordered by key, never by
  // pointer value. (tools/ci.sh repeats this across two real processes.)
  const benchgen::Testcase tc1 = smallCase();
  const benchgen::Testcase tc2 = smallCase();
  AccessCache c1;
  AccessCache c2;
  OracleConfig cfg1 = withBcaConfig();
  cfg1.cache = &c1;
  OracleConfig cfg2 = withBcaConfig();
  cfg2.cache = &c2;
  cfg2.numThreads = 4;  // thread count must not leak into the file either
  PinAccessOracle(*tc1.design, cfg1).run();
  PinAccessOracle(*tc2.design, cfg2).run();
  const std::string s1 = c1.save(*tc1.tech, *tc1.lib);
  const std::string s2 = c2.save(*tc2.tech, *tc2.lib);
  EXPECT_EQ(s1, s2);
}

TEST(AccessCache, FingerprintMismatchRejectedWithReason) {
  const benchgen::Testcase tc = smallCase();
  AccessCache cache;
  OracleConfig cfg = withBcaConfig();
  cfg.cache = &cache;
  PinAccessOracle(*tc.design, cfg).run();
  std::string text = cache.save(*tc.tech, *tc.lib);

  // Corrupt the fingerprint: the whole file must be rejected.
  const std::size_t pos = text.find("FINGERPRINT ");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 12] = text[pos + 12] == '0' ? '1' : '0';
  AccessCache other;
  std::string error;
  EXPECT_EQ(other.load(text, *tc.tech, *tc.lib, &error), 0u);
  EXPECT_NE(error.find("fingerprint mismatch"), std::string::npos);
  EXPECT_EQ(other.size(), 0u);
}

TEST(AccessCache, V1CacheRejectedWithReason) {
  // Nothing writes the fingerprint-less v1 format any more, so its header
  // is rejected like any unknown one: nothing merged, a reason reported.
  const benchgen::Testcase tc = smallCase();
  AccessCache cache;
  OracleConfig cfg = withBcaConfig();
  cfg.cache = &cache;
  PinAccessOracle(*tc.design, cfg).run();
  const std::string v2 = cache.save(*tc.tech, *tc.lib);
  const std::size_t entries = v2.find("ENTRY ");
  ASSERT_NE(entries, std::string::npos);
  const std::string v1 = "PAO_ACCESS_CACHE v1\n" + v2.substr(entries);

  AccessCache other;
  std::string error;
  EXPECT_EQ(other.load(v1, *tc.tech, *tc.lib, &error), 0u);
  EXPECT_NE(error.find("unrecognized header 'PAO_ACCESS_CACHE v1'"),
            std::string::npos)
      << error;
  EXPECT_EQ(other.size(), 0u);
}

// ---------------------------------------------- hostile-input regressions
// A corrupt, truncated, or tampered cache file must always be rejected
// cleanly (load returns 0 with a reason, nothing installed) — never crash,
// never read out of bounds, never commit a partial cache.

namespace {

std::string savedCacheText(const benchgen::Testcase& tc, AccessCache& cache) {
  OracleConfig cfg = withBcaConfig();
  cfg.cache = &cache;
  PinAccessOracle(*tc.design, cfg).run();
  return cache.save(*tc.tech, *tc.lib);
}

}  // namespace

TEST(AccessCacheHardening, TruncatedV2RejectedAtomically) {
  const benchgen::Testcase tc = smallCase();
  AccessCache cache;
  const std::string text = savedCacheText(tc, cache);

  // Cut at many points, including mid-record and mid-token: every prefix
  // must be rejected whole (v2 is all-or-nothing).
  for (const std::size_t keep :
       {text.size() / 4, text.size() / 2, text.size() - 10}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    AccessCache other;
    std::string error;
    EXPECT_EQ(other.load(text.substr(0, keep), *tc.tech, *tc.lib, &error),
              0u);
    EXPECT_NE(error.find("corrupt or truncated"), std::string::npos)
        << error;
    EXPECT_EQ(other.size(), 0u);
  }
}

TEST(AccessCacheHardening, EntryBoundaryTruncationRejected) {
  // Drop only the END trailer: every record left is intact, so only the
  // trailer check can tell that later entries are missing.
  const benchgen::Testcase tc = smallCase();
  AccessCache cache;
  const std::string text = savedCacheText(tc, cache);
  const std::size_t end = text.rfind("END ");
  ASSERT_NE(end, std::string::npos);
  AccessCache other;
  std::string error;
  EXPECT_EQ(other.load(text.substr(0, end), *tc.tech, *tc.lib, &error), 0u);
  EXPECT_NE(error.find("missing END trailer"), std::string::npos);
  EXPECT_EQ(other.size(), 0u);
}

TEST(AccessCacheHardening, EndCountMismatchRejected) {
  const benchgen::Testcase tc = smallCase();
  AccessCache cache;
  std::string text = savedCacheText(tc, cache);
  const std::size_t end = text.rfind("END ");
  ASSERT_NE(end, std::string::npos);
  text.replace(end, std::string::npos, "END 999999\n");
  AccessCache other;
  std::string error;
  EXPECT_EQ(other.load(text, *tc.tech, *tc.lib, &error), 0u);
  EXPECT_NE(error.find("END count"), std::string::npos);
}

TEST(AccessCacheHardening, DataAfterEndTrailerRejected) {
  const benchgen::Testcase tc = smallCase();
  AccessCache cache;
  std::string text = savedCacheText(tc, cache);
  text += "ENTRY sneaky R0 0\n";
  AccessCache other;
  std::string error;
  EXPECT_EQ(other.load(text, *tc.tech, *tc.lib, &error), 0u);
  EXPECT_NE(error.find("data after END"), std::string::npos);
}

TEST(AccessCacheHardening, HostileCountRejectedWithoutHugeAllocation) {
  // The historical bug: record counts drove vector::resize unchecked, so a
  // single flipped digit could demand gigabytes (or, with a negative read
  // into size_t, instant OOM). Counts are now bounded by the bytes actually
  // remaining in the file.
  const benchgen::Testcase tc = smallCase();
  AccessCache cache;
  const std::string text = savedCacheText(tc, cache);
  for (const char* tag : {"PINS ", "PIN ", "ORDER ", "PATTERNS "}) {
    SCOPED_TRACE(tag);
    std::string tampered = text;
    const std::size_t at = tampered.find(tag);
    ASSERT_NE(at, std::string::npos);
    const std::size_t numAt = at + std::string(tag).size();
    const std::size_t numEnd = tampered.find_first_of(" \n", numAt);
    tampered.replace(numAt, numEnd - numAt, "987654321");
    AccessCache other;
    std::string error;
    EXPECT_EQ(other.load(tampered, *tc.tech, *tc.lib, &error), 0u);
    EXPECT_NE(error.find("corrupt or truncated"), std::string::npos)
        << error;
    EXPECT_EQ(other.size(), 0u);
  }
}

TEST(AccessCacheHardening, V1HostileCountRejectedWithoutHugeAllocation) {
  // A v1 header is rejected before its body is read: a v1 "file" asking for
  // 10^9 offsets in a 60-byte body must load nothing, not allocate.
  const benchgen::Testcase tc = smallCase();
  AccessCache other;
  std::string error;
  EXPECT_EQ(other.load("PAO_ACCESS_CACHE v1\nENTRY X R0 999999999 1 2 3\n",
                       *tc.tech, *tc.lib, &error),
            0u);
  EXPECT_NE(error.find("unrecognized header"), std::string::npos) << error;
  EXPECT_EQ(other.size(), 0u);
}

TEST(AccessCacheHardening, UnknownMasterInV2BodyIsTamper) {
  // The fingerprint matched, so a master name the library lacks can only
  // mean a tampered body: reject the whole file.
  const benchgen::Testcase tc = smallCase();
  AccessCache cache;
  std::string text = savedCacheText(tc, cache);
  const std::size_t at = text.find("ENTRY ");
  ASSERT_NE(at, std::string::npos);
  text.replace(at + 6, text.find(' ', at + 6) - (at + 6), "GHOST_MASTER");
  AccessCache other;
  std::string error;
  EXPECT_EQ(other.load(text, *tc.tech, *tc.lib, &error), 0u);
  EXPECT_NE(error.find("unknown master"), std::string::npos);
  EXPECT_EQ(other.size(), 0u);
}

TEST(OracleThreads, ParallelRunMatchesSerial) {
  const benchgen::Testcase tc = smallCase();

  OracleConfig serialCfg = withBcaConfig();
  serialCfg.numThreads = 1;
  PinAccessOracle serial(*tc.design, serialCfg);
  const OracleResult a = serial.run();

  OracleConfig parCfg = withBcaConfig();
  parCfg.numThreads = 4;
  PinAccessOracle parallel(*tc.design, parCfg);
  const OracleResult b = parallel.run();

  EXPECT_TRUE(sameAccess(a, b, *tc.design));
  EXPECT_EQ(countDirtyAps(*tc.design, b).dirtyAps, 0u);
  EXPECT_EQ(countFailedPins(*tc.design, b).failedPins,
            countFailedPins(*tc.design, a).failedPins);
}

TEST(OracleThreads, HardwareConcurrencyMode) {
  const benchgen::Testcase tc = smallCase();
  OracleConfig cfg = withBcaConfig();
  cfg.numThreads = 0;  // auto
  PinAccessOracle oracle(*tc.design, cfg);
  const OracleResult res = oracle.run();
  EXPECT_GT(res.wallSeconds, 0.0);
  EXPECT_EQ(countDirtyAps(*tc.design, res).dirtyAps, 0u);
}

}  // namespace
}  // namespace pao::core
