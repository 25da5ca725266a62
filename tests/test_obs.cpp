// Tests for src/obs/: Json round-trips, metrics-registry determinism under
// any thread count, tracer span nesting across util::parallelFor, and the
// pao-report/1 schema helpers. The complementary PAO_OBS=OFF zero-overhead
// check (no Registry/Tracer symbols referenced from hot TUs) is a build
// matter and lives in tools/ci.sh, which nm-greps an OFF-configured build.
#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/jobs.hpp"

namespace {

using pao::obs::Json;
using pao::obs::Registry;
using pao::obs::RunReport;
using pao::obs::Tracer;

static_assert(PAO_OBS_ENABLED == 1,
              "the test suite exercises the instrumented configuration");

// --- Json ----------------------------------------------------------------

TEST(ObsJson, RoundTripsNestedDocument) {
  Json doc = Json::object()
                 .set("name", Json("pao \"quoted\" \\ slash"))
                 .set("count", Json(42))
                 .set("ratio", Json(0.25))
                 .set("flag", Json(true))
                 .set("nothing", Json());
  Json arr = Json::array();
  arr.push(Json(1));
  arr.push(Json("two"));
  arr.push(Json::object().set("deep", Json(-7)));
  doc.set("items", std::move(arr));

  const std::string text = doc.dump(1);
  std::string error;
  const auto parsed = Json::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(*parsed == doc);
  EXPECT_EQ(parsed->dump(1), text);
}

TEST(ObsJson, ParseRejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "{\"a\":1} trailing",
                          "\"unterminated", "nul"}) {
    std::string error;
    EXPECT_FALSE(Json::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ObsJson, ParseHandlesUnicodeEscapes) {
  const auto parsed = Json::parse("\"a\\u00e9\\ud83d\\ude00b\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->asString(), "a\xc3\xa9\xf0\x9f\x98\x80"
                                "b");
}

// --- Metrics registry ----------------------------------------------------

TEST(ObsMetrics, SnapshotIsCanonicallySorted) {
  Registry& reg = Registry::instance();
  reg.reset();
  reg.counter("pao.test.zeta").add(1);
  reg.counter("pao.test.alpha").add(2);
  reg.counter("pao.test.mid").add(3);
  const Json snap = reg.snapshot();
  const Json* counters = snap.find("counters");
  ASSERT_NE(counters, nullptr);
  std::vector<std::string> names;
  for (const auto& [name, value] : counters->members()) {
    names.push_back(name);
    (void)value;
  }
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(names, sorted);
}

TEST(ObsMetrics, HistogramBucketsAndOverflow) {
  const std::vector<long long> bounds{1, 2, 4};
  pao::obs::Histogram h(bounds);
  for (const long long v : {0, 1, 2, 3, 4, 5, 100}) h.observe(v);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 115);
  const std::vector<std::uint64_t> counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);      // 0, 1
  EXPECT_EQ(counts[1], 1u);      // 2
  EXPECT_EQ(counts[2], 2u);      // 3, 4
  EXPECT_EQ(counts[3], 2u);      // 5, 100
}

TEST(ObsMetrics, ScopedCountFlushesOnce) {
  Registry& reg = Registry::instance();
  reg.reset();
  pao::obs::Counter& c = reg.counter("pao.test.scoped");
  {
    pao::obs::ScopedCount sc(c);
    for (int i = 0; i < 10; ++i) sc.inc();
    EXPECT_EQ(c.value(), 0u);  // nothing flushed mid-scope
  }
  EXPECT_EQ(c.value(), 10u);
}

/// Runs the same counted workload at a given thread count and returns the
/// resulting registry snapshot text.
std::string workloadSnapshot(int numThreads) {
  Registry::instance().reset();
  pao::util::parallelFor(
      200,
      [](std::size_t i) {
        PAO_COUNTER_INC("pao.test.items_processed");
        PAO_COUNTER_ADD("pao.test.bytes_touched", i);
        PAO_HISTOGRAM_OBSERVE("pao.test.item_weight", i % 13);
      },
      numThreads);
  PAO_GAUGE_SET("pao.test.last_batch", 200);
  return Registry::instance().snapshot().dump(1);
}

TEST(ObsMetrics, SnapshotIsByteIdenticalAcrossThreadCounts) {
  const std::string s1 = workloadSnapshot(1);
  const std::string s4 = workloadSnapshot(4);
  const std::string sHw = workloadSnapshot(0);  // 0 = hardware concurrency
  EXPECT_EQ(s1, s4);
  EXPECT_EQ(s1, sHw);
  EXPECT_NE(s1.find("pao.test.items_processed"), std::string::npos);
}

// --- Tracer --------------------------------------------------------------

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::instance();
  tracer.disable();
  {
    PAO_TRACE_SCOPE("test.should_not_appear");
  }
  EXPECT_EQ(tracer.eventCount(), 0u);
}

TEST(ObsTrace, ExportNestsWorkerSpansUnderParallelFor) {
  Tracer& tracer = Tracer::instance();
  tracer.enable();
  {
    PAO_TRACE_SCOPE("test.phase");
    pao::util::parallelFor(
        16,
        [](std::size_t i) {
          PAO_TRACE_SCOPE("test.phase.item");
          volatile std::size_t sink = 0;
          for (std::size_t j = 0; j < 1000 + i; ++j) sink = sink + j;
        },
        4);
  }
  tracer.disable();

  const std::string text = tracer.exportChromeTrace();
  std::string error;
  const auto doc = Json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_TRUE(pao::obs::validateTrace(*doc, 2, /*requireWorker=*/true,
                                      &error))
      << error;

  // The submitting thread's span stack names the workers after the phase.
  bool sawWorker = false;
  for (const auto& ev : doc->find("traceEvents")->items()) {
    if (ev.find("name")->asString() == "test.phase.worker") sawWorker = true;
  }
  EXPECT_TRUE(sawWorker);
}

// A full ring overwrites its oldest events; the export counts them and
// validation rejects the lossy trace unless drops are allowed.
TEST(ObsTrace, DroppedEventsAreExportedAndRejected) {
  Tracer& tracer = Tracer::instance();
  tracer.enable(16);
  for (int i = 0; i < 100; ++i) {
    PAO_TRACE_SCOPE("test.ring");
  }
  tracer.disable();
  EXPECT_EQ(tracer.droppedEvents(), 84u);

  std::string error;
  const auto doc = Json::parse(tracer.exportChromeTrace(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const Json* other = doc->find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->find("eventCount")->asInt(), 16);
  EXPECT_EQ(other->find("droppedEvents")->asInt(), 84);
  EXPECT_FALSE(pao::obs::validateTrace(*doc, 1, /*requireWorker=*/false,
                                       &error));
  EXPECT_NE(error.find("84 events were dropped"), std::string::npos)
      << error;
  EXPECT_TRUE(pao::obs::validateTrace(*doc, 1, /*requireWorker=*/false,
                                      &error, /*allowDrops=*/true))
      << error;
}

TEST(ObsTrace, ReenableClearsPriorCapture) {
  Tracer& tracer = Tracer::instance();
  tracer.enable();
  {
    PAO_TRACE_SCOPE("test.first");
  }
  tracer.disable();
  ASSERT_GE(tracer.eventCount(), 1u);
  tracer.enable();
  tracer.disable();
  EXPECT_EQ(tracer.eventCount(), 0u);
}

// --- Run report ----------------------------------------------------------

TEST(ObsReport, SchemaRoundTripsAndValidates) {
  Registry::instance().reset();
  PAO_COUNTER_ADD("pao.test.report_items", 5);

  RunReport report("pao_tests");
  report.section("design").set("name", Json("unit")).set("nets", Json(3));
  report.section("timings").set("wallSeconds", Json(0.5));
  report.captureMetrics();

  std::string error;
  EXPECT_TRUE(pao::obs::validateReport(report.doc(), &error)) << error;

  const auto parsed = Json::parse(report.dump(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(*parsed == report.doc());
  EXPECT_EQ(parsed->find("schema")->asString(), pao::obs::kReportSchema);
  ASSERT_NE(parsed->find("env"), nullptr);
  EXPECT_NE(parsed->find("env")->find("hwThreads"), nullptr);
  EXPECT_NE(parsed->find("env")->find("gitSha"), nullptr);
}

TEST(ObsReport, ValidateRejectsBadDocuments) {
  std::string error;
  EXPECT_FALSE(pao::obs::validateReport(Json::object(), &error));

  Json wrongSchema = RunReport("t").doc();
  wrongSchema.set("schema", Json("pao-report/999"));
  EXPECT_FALSE(pao::obs::validateReport(wrongSchema, &error));

  Json unknownKey = RunReport("t").doc();
  unknownKey.set("surprise", Json(1));
  EXPECT_FALSE(pao::obs::validateReport(unknownKey, &error));
  EXPECT_NE(error.find("surprise"), std::string::npos);
}

// A traced run's report carries the trace's event and drop counts, which
// validation checks and the compare normalization drops with the recording.
TEST(ObsReport, TraceSectionCarriesDropCounts) {
  Tracer& tracer = Tracer::instance();
  tracer.enable(16);
  for (int i = 0; i < 100; ++i) {
    PAO_TRACE_SCOPE("test.ring");
  }
  tracer.disable();

  RunReport traced("pao_tests");
  traced.section("oracle").set("totalAps", Json(12));
  traced.section("trace") = tracer.counts();
  std::string error;
  EXPECT_TRUE(pao::obs::validateReport(traced.doc(), &error)) << error;
  const auto parsed = Json::parse(traced.dump(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const Json* trace = parsed->find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->find("eventCount")->asInt(), 16);
  EXPECT_EQ(trace->find("droppedEvents")->asInt(), 84);

  for (const char* key : {"eventCount", "droppedEvents"}) {
    SCOPED_TRACE(key);
    Json missing = traced.doc();
    Json counts = Json::object();
    counts.set(key, Json(3));
    missing.set("trace", counts);
    EXPECT_FALSE(pao::obs::validateReport(missing, &error));
    EXPECT_NE(error.find("trace."), std::string::npos) << error;
    Json negative = traced.doc();
    negative["trace"].set(key, Json(-1));
    EXPECT_FALSE(pao::obs::validateReport(negative, &error));
    Json text = traced.doc();
    text["trace"].set(key, Json("84"));
    EXPECT_FALSE(pao::obs::validateReport(text, &error));
  }
  Json notObject = traced.doc();
  notObject.set("trace", Json(84));
  EXPECT_FALSE(pao::obs::validateReport(notObject, &error));

  RunReport untraced("pao_tests");
  untraced.section("oracle").set("totalAps", Json(12));
  EXPECT_EQ(pao::obs::normalizeForCompare(traced.doc()).dump(),
            pao::obs::normalizeForCompare(untraced.doc()).dump());
}

TEST(ObsReport, NormalizeForCompareStripsEveryTimingKey) {
  RunReport a("pao_tests");
  a.section("oracle").set("totalAps", Json(12)).set("wallSeconds", Json(1.5));
  a.section("timings").set("step1CpuSeconds", Json(0.25));
  a.section("config").set("threads", Json(4));

  RunReport b("pao_tests");
  b.section("oracle").set("totalAps", Json(12)).set("wallSeconds", Json(9.9));
  b.section("timings").set("step1CpuSeconds", Json(7.0));
  b.section("config").set("threads", Json(1));

  const Json na = pao::obs::normalizeForCompare(a.doc());
  const Json nb = pao::obs::normalizeForCompare(b.doc());
  EXPECT_EQ(na.dump(), nb.dump());
  // The payload survives; only timing-valued keys are gone.
  EXPECT_NE(na.find("oracle"), nullptr);
  EXPECT_NE(na.find("oracle")->find("totalAps"), nullptr);
  EXPECT_EQ(na.find("oracle")->find("wallSeconds"), nullptr);
  EXPECT_EQ(na.find("timings"), nullptr);
}

}  // namespace
