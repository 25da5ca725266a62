// Scale bench (ROADMAP item 3): stream-generates a huge-preset DEF to
// disk, ingests it back through the chunked parallel parser, builds the
// unique-instance classes with the serial reference loop and the sharded
// index, then runs a full analyze.
// BENCH_scale.json (schema pao-report/2) records the throughput figures —
// MB/s, insts/s — index-build times, analyze wall time and peak RSS, plus
// a validated "ingest" section (report_check ingest gates it in CI).
//
// Self-check (exit 1 on failure):
//   * the streamed parse and the frozen reference parser
//     (tests/reference_lefdef.cpp) agree on db::designFingerprint for a
//     small huge-preset DEF,
//   * the sharded db::UniqueInstanceIndex at 1, 4 and hardware threads is
//     identical to the serial reference extraction
//     (tests/reference_unique_inst.cpp; class indices, signatures and
//     members included),
//   * DEF throughput and peak RSS are nonzero.
//
// PAO_SCALE defaults to 1.0 here (~1.5M instances, ~150MB of DEF) to match
// the acceptance run; the ctest smoke leg runs at PAO_SCALE=0.01.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "benchgen/huge.hpp"
#include "db/fingerprint.hpp"
#include "db/unique_inst.hpp"
#include "lefdef/lef_writer.hpp"
#include "lefdef/stream.hpp"
#include "pao/report_json.hpp"
#include "pao/session.hpp"
#include "reference.hpp"
#include "util/cpu_time.hpp"

using namespace pao;

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  const double scale = bench::benchScale(1.0);
  bench::BenchReport report("scale");
  const benchgen::HugeSpec spec = benchgen::hugeSpec();
  const benchgen::HugeTechLib tl = benchgen::makeHugeTechLib(spec);

  std::string dir = ".";
  if (const char* d = std::getenv("PAO_BENCH_REPORT_DIR")) dir = d;
  const std::string lefPath = dir + "/pao_scale_huge.lef";
  const std::string defPath = dir + "/pao_scale_huge.def";

  // Phase 1: stream-generate to disk (the design is never materialized).
  const auto tGen = std::chrono::steady_clock::now();
  benchgen::HugeCounts counts;
  {
    std::ofstream lef(lefPath);
    lef << lefdef::writeLef(*tl.tech, *tl.lib);
    std::ofstream def(defPath);
    counts = benchgen::writeHugeDef(spec, scale, *tl.tech, *tl.lib, def);
    if (!lef || !def) {
      std::fprintf(stderr, "cannot write %s / %s\n", lefPath.c_str(),
                   defPath.c_str());
      return 1;
    }
  }
  const double genSeconds = secondsSince(tGen);
  std::printf("Scale bench on %s (scale %.3g)\n", spec.name.c_str(), scale);
  std::printf("%-34s | %12s\n", "quantity", "value");
  bench::printRule(50);
  std::printf("%-34s | %12zu\n", "instances generated", counts.cells);
  std::printf("%-34s | %12zu\n", "nets generated", counts.nets);
  std::printf("%-34s | %12.2f\n", "generate seconds", genSeconds);

  // Phase 2: streamed ingest (mmap + chunked parallel sections).
  db::Tech tech;
  db::Library lib;
  lefdef::ParseOptions lefOpts;
  lefOpts.file = lefPath;
  lefdef::IngestStats lefStats;
  lefdef::parseLefFile(lefPath, tech, lib, lefOpts, &lefStats);
  db::Design design;
  design.tech = &tech;
  design.lib = &lib;
  lefdef::StreamOptions sopts;
  sopts.parse.file = defPath;
  sopts.numThreads = 0;
  lefdef::IngestStats stats;
  lefdef::parseDefFile(defPath, design, sopts, &stats);
  const double parseSecs = stats.parseSeconds > 0 ? stats.parseSeconds : 1e-9;
  const double mbPerSec =
      static_cast<double>(stats.bytes) / (1024.0 * 1024.0) / parseSecs;
  const double instsPerSec =
      static_cast<double>(stats.components) / parseSecs;
  std::printf("%-34s | %12.1f\n", "DEF MB",
              static_cast<double>(stats.bytes) / (1024.0 * 1024.0));
  std::printf("%-34s | %12zu\n", "chunks", stats.chunks);
  std::printf("%-34s | %12s\n", "mmap", stats.mapped ? "yes" : "no");
  std::printf("%-34s | %12.2f\n", "parse seconds", stats.parseSeconds);
  std::printf("%-34s | %12.1f\n", "MB/s", mbPerSec);
  std::printf("%-34s | %12.0f\n", "insts/s", instsPerSec);

  // Phase 3: unique-instance index, serial vs sharded.
  const auto tSerial = std::chrono::steady_clock::now();
  const db::UniqueInstances serial =
      reference::extractUniqueInstances(design);
  const double serialSeconds = secondsSince(tSerial);
  const auto tSharded = std::chrono::steady_clock::now();
  const db::UniqueInstances sharded =
      db::UniqueInstanceIndex(design, 0).classes();
  const double shardedSeconds = secondsSince(tSharded);
  std::printf("%-34s | %12zu\n", "unique classes", serial.classes.size());
  std::printf("%-34s | %12.2f\n", "index build s (serial)", serialSeconds);
  std::printf("%-34s | %12.2f\n", "index build s (sharded)", shardedSeconds);

  // Phase 4: full analyze through the session front end.
  core::OracleConfig cfg;
  cfg.numThreads = 0;
  const core::OracleSession session(
      static_cast<const db::Design&>(design), cfg);
  const core::OracleResult res = session.snapshot();
  const std::uint64_t peakRss = util::peakRssBytes();
  std::printf("%-34s | %12.2f\n", "analyze wall seconds", res.wallSeconds);
  std::printf("%-34s | %12.1f\n", "peak RSS MB",
              static_cast<double>(peakRss) / (1024.0 * 1024.0));
  std::fflush(stdout);

  core::IngestReport ir;
  ir.lefBytes = lefStats.bytes;
  ir.defBytes = stats.bytes;
  ir.chunks = stats.chunks;
  ir.components = stats.components;
  ir.nets = stats.nets;
  ir.mapped = stats.mapped;
  ir.legacyFallback = stats.legacyFallback;
  ir.parseSeconds = stats.parseSeconds;
  ir.peakRssBytes = peakRss;
  report.report().doc().set("schema", obs::Json(obs::kReportSchemaV2));
  report.report().section("ingest") = core::ingestSectionJson(ir);
  report.bench()
      .set("instances", obs::Json(counts.cells))
      .set("nets", obs::Json(counts.nets))
      .set("rows", obs::Json(counts.rows))
      .set("defBytes", obs::Json(stats.bytes))
      .set("chunks", obs::Json(stats.chunks))
      .set("mapped", obs::Json(stats.mapped))
      .set("generateSeconds", obs::Json(genSeconds))
      .set("parseSeconds", obs::Json(stats.parseSeconds))
      .set("mbPerSec", obs::Json(mbPerSec))
      .set("instsPerSec", obs::Json(instsPerSec))
      .set("indexSerialSeconds", obs::Json(serialSeconds))
      .set("indexShardedSeconds", obs::Json(shardedSeconds))
      .set("uniqueClasses", obs::Json(serial.classes.size()))
      .set("analyzeWallSeconds", obs::Json(res.wallSeconds))
      .set("peakRssBytes",
           obs::Json(static_cast<long long>(peakRss)));
  report.write();

  bool ok = true;

  // Self-check 1: streamed == reference on a small huge-preset DEF,
  // compared by content fingerprint (equal fingerprints => identical
  // writeDef text).
  {
    const double smallScale =
        std::min(scale, 5000.0 / static_cast<double>(spec.numCells));
    std::ostringstream small;
    benchgen::writeHugeDef(spec, smallScale, *tl.tech, *tl.lib, small);
    const std::string text = small.str();
    db::Design ref;
    ref.tech = &tech;
    ref.lib = &lib;
    reference::parseDef(text, ref);
    db::Design streamed;
    streamed.tech = &tech;
    streamed.lib = &lib;
    lefdef::StreamOptions so;
    so.chunkBytes = 1 << 14;
    lefdef::parseDefStream(text, streamed, so);
    if (db::designFingerprint(ref) != db::designFingerprint(streamed)) {
      std::fprintf(stderr,
                   "selfcheck FAILED: streamed parse fingerprint differs "
                   "from reference parse\n");
      ok = false;
    }
  }

  // Self-check 2: sharded extraction is invariant across thread counts and
  // identical to the serial result.
  for (const int threads : {1, 4, 0}) {
    if (serial != (threads == 0
                       ? sharded
                       : db::UniqueInstanceIndex(design, threads).classes())) {
      std::fprintf(stderr,
                   "selfcheck FAILED: sharded extraction at %d thread(s) "
                   "differs from serial\n",
                   threads);
      ok = false;
    }
  }

  // Self-check 3: the figures the acceptance run records must be real.
  if (!(mbPerSec > 0) || !(instsPerSec > 0)) {
    std::fprintf(stderr, "selfcheck FAILED: zero ingest throughput\n");
    ok = false;
  }
  if (peakRss == 0) {
    std::fprintf(stderr, "selfcheck FAILED: peak RSS unavailable\n");
    ok = false;
  }

  std::remove(lefPath.c_str());
  std::remove(defPath.c_str());
  if (ok) std::fprintf(stderr, "selfcheck OK\n");
  return ok ? 0 : 1;
}
