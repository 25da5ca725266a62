// pao_cli — command-line front end for the library.
//
//   pao_cli gen <preset> <scale> <out-prefix>      synthesize a testcase to
//                                                  <out-prefix>.lef/.def
//   pao_cli analyze <lef> <def> [options]          run pin access analysis
//   pao_cli route <lef> <def> [options]            PAAF + detailed routing
//   pao_cli bench-incremental <lef> <def> [opts]   incremental-session bench
//   pao_cli list                                   list testcase presets
//
// Stream contract: every human-readable status line goes to stderr; stdout
// is reserved for `--report-json -` so scripts can pipe the report without
// scraping.
//
// analyze options:
//   --mode bca|nobca|legacy    flow preset (default bca)
//   --threads N                worker threads for the DEF ingest, the
//                              oracle and the evaluation (default 1,
//                              0=auto)
//   --stream                   add the report's "ingest" section
//                              (pao-report/2) and the stderr ingest line
//   --report-failed N          print up to N failed-pin diagnostics
//   --cache-in <file>          preload the access cache (exit 1 on a
//                              fingerprint mismatch)
//   --cache-out <file>         save the access cache after the run
//   --report-json <file|->     write a pao-report/1 JSON document
//   --trace-out <file>         write a Chrome/Perfetto trace of the run
//   --profile-out <file|->     write a pao-report/2 document whose
//                              "profile" section is the oracle pipeline's
//                              job-graph profile (critical path, headroom,
//                              per-worker utilization); with --trace-out
//                              the trace additionally gains per-worker job
//                              tracks with dependency flow arrows
//                              (PAO_OBS=ON builds only)
// route options:
//   --out <file.def>           write the routed design as DEF
//   --threads N                worker threads for the DEF ingest, oracle,
//                              access planning and batch DRC (default 1,
//                              0=auto); routed output is identical for
//                              any value
//   --cache-in / --cache-out   as for analyze
//   --report-json / --trace-out  as for analyze
// bench-incremental options:
//   --moves K                  number of random instance moves (default 8)
//   --threads N                worker threads (default 1, 0=auto)
//   --seed S                   RNG seed (default 1)
//   --report-json / --trace-out  as for analyze
//
// robustness options (analyze and route):
//   --strict                   abort on the first input error (default)
//   --keep-going               recover from LEF/DEF parse errors, fall back
//                              per unique class when Steps 1-2 fail, and
//                              treat an unusable --cache-in as a warning;
//                              everything recovered from is recorded in the
//                              report's "degraded" section
//   --step3-budget S           wall-clock budget (seconds) for the Step-3
//                              cluster DP; on expiry remaining clusters
//                              commit best-so-far patterns (degraded event)
//   --faults SPEC              arm deterministic fault injection (see
//                              src/util/fault.hpp for the spec grammar);
//                              also read from the PAO_FAULTS env variable
//
// exit codes:
//   0  success
//   1  quality failure (failed pins, report/trace write error, rejected
//      cache in strict mode)
//   2  usage error or malformed --faults/PAO_FAULTS spec
//   3  invalid input / fatal error (parse error in strict mode, unreadable
//      file, injected fault escaping in strict mode) — never an abort
//   4  run completed but degraded (nonempty "degraded" section; takes
//      precedence over 1)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchgen/huge.hpp"
#include "benchgen/testcase.hpp"
#include "db/legality.hpp"
#include "lefdef/def_route_writer.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/lef_writer.hpp"
#include "lefdef/stream.hpp"
#include "obs/enabled.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#if PAO_OBS_ENABLED
#include "obs/profile.hpp"
#endif
#include "pao/evaluate.hpp"
#include "pao/report_json.hpp"
#include "pao/session.hpp"
#include "router/router.hpp"
#include "util/cpu_time.hpp"
#include "util/fault.hpp"

namespace {

using namespace pao;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  pao_cli gen <preset> <scale> <out-prefix>   (preset 0-9, a, m, h)\n"
      "  pao_cli analyze <lef> <def> [--mode bca|nobca|legacy] [--threads N]"
      " [--stream] [--report-failed N] [--cache-in f] [--cache-out f]"
      " [--report-json f|-] [--trace-out f] [--profile-out f|-]"
      " [--strict|--keep-going] [--step3-budget S] [--faults SPEC]\n"
      "  pao_cli route <lef> <def> [--out routed.def] [--threads N]"
      " [--cache-in f] [--cache-out f] [--report-json f|-] [--trace-out f]"
      " [--strict|--keep-going] [--step3-budget S] [--faults SPEC]\n"
      "  pao_cli bench-incremental <lef> <def> [--moves K] [--threads N]"
      " [--seed S] [--report-json f|-] [--trace-out f]\n"
      "  pao_cli list\n");
  return 2;
}

/// Reads `path`, or throws (caught in main → exit 3). `faultPoint` names the
/// injection point guarding this read ("cache.io"; the LEF/DEF reads fire
/// "lef.io"/"def.io" inside the lefdef *File forms).
std::string slurp(const char* path, const char* faultPoint) {
  PAO_FAULT_INJECT(faultPoint);
  std::ifstream f(path);
  if (!f) {
    throw std::runtime_error(std::string("cannot open ") + path);
  }
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Shared --strict/--keep-going/--step3-budget/--faults handling plus the
/// degradation events collected before the oracle runs (parse recoveries).
struct RobustOpts {
  bool keepGoing = false;
  double step3Budget = 0;
  std::vector<core::DegradedEvent> preOracle;

  /// Returns true when argv[i] was one of ours; sets `bad` (exit 2) on a
  /// malformed --faults spec.
  bool parseFlag(int argc, char** argv, int& i, bool& bad) {
    if (std::strcmp(argv[i], "--strict") == 0) {
      keepGoing = false;
      return true;
    }
    if (std::strcmp(argv[i], "--keep-going") == 0) {
      keepGoing = true;
      return true;
    }
    if (std::strcmp(argv[i], "--step3-budget") == 0 && i + 1 < argc) {
      step3Budget = std::atof(argv[++i]);
      return true;
    }
    if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      std::string error;
      if (!util::FaultRegistry::instance().configure(argv[++i], &error)) {
        std::fprintf(stderr, "--faults: %s\n", error.c_str());
        bad = true;
      }
      return true;
    }
    return false;
  }

  void apply(core::OracleConfig& cfg) const {
    cfg.keepGoing = keepGoing;
    cfg.clusterSelect.budgetSeconds = step3Budget;
  }
};

/// Prints recovery-mode diagnostics and records the errors as "parse_error"
/// degradation events.
void reportDiags(const lefdef::ParseResult& pr, RobustOpts& rob) {
  for (const util::Diag& d : pr.diags) {
    std::fprintf(stderr, "%s\n", d.format().c_str());
    if (d.severity == util::Severity::kError) {
      rob.preOracle.push_back({"parse_error", d.header(), -1});
    }
  }
}

/// Merges parse-time and oracle degradation events into canonical order,
/// prints them, stores them in the report, and maps them to the exit code:
/// 4 when any event occurred (wins over `qualityExit`), else `qualityExit`.
int finishDegraded(const RobustOpts& rob,
                   const std::vector<core::DegradedEvent>& fromOracle,
                   obs::RunReport& report, int qualityExit) {
  std::vector<core::DegradedEvent> all = rob.preOracle;
  all.insert(all.end(), fromOracle.begin(), fromOracle.end());
  std::sort(all.begin(), all.end(),
            [](const core::DegradedEvent& a, const core::DegradedEvent& b) {
              return std::tie(a.cls, a.kind, a.detail) <
                     std::tie(b.cls, b.kind, b.detail);
            });
  if (!all.empty() || rob.keepGoing) {
    report.section("degraded") = core::degradedSectionJson(all);
  }
  if (all.empty()) return qualityExit;
  std::fprintf(stderr, "  degraded         : %zu event(s)\n", all.size());
  for (const core::DegradedEvent& e : all) {
    std::fprintf(stderr, "    [%s] %s\n", e.kind.c_str(), e.detail.c_str());
  }
  return 4;
}

struct LoadedDesign {
  db::Tech tech;
  db::Library lib;
  db::Design design;
};

/// Shared --report-json/--trace-out/--profile-out handling: the tracer is
/// enabled before the workload runs and all artifacts are written at scope
/// exit. The profile goes to its own file (schema pao-report/2) so the
/// plain --report-json document stays v1 and byte-comparable across thread
/// counts after normalizeForCompare.
struct ObsOutputs {
  const char* reportPath = nullptr;
  const char* tracePath = nullptr;
  const char* profilePath = nullptr;

  bool parseFlag(int argc, char** argv, int& i) {
    if (std::strcmp(argv[i], "--report-json") == 0 && i + 1 < argc) {
      reportPath = argv[++i];
      return true;
    }
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      tracePath = argv[++i];
      return true;
    }
    if (std::strcmp(argv[i], "--profile-out") == 0 && i + 1 < argc) {
      profilePath = argv[++i];
      return true;
    }
    return false;
  }

  void startTracing() const {
    if (tracePath != nullptr) obs::Tracer::instance().enable();
  }

  /// Finishes the run: captures metrics (and, when traced, the trace's
  /// event and drop counts) into the report and writes both files. Returns
  /// false (after printing to stderr) on any I/O failure.
  bool finish(obs::RunReport& report) const {
    bool ok = true;
    if (tracePath != nullptr) {
      obs::Tracer& tracer = obs::Tracer::instance();
      tracer.disable();
      report.section("trace") = tracer.counts();
      std::ofstream out(tracePath);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", tracePath);
        ok = false;
      } else {
        out << tracer.exportChromeTrace() << "\n";
        std::fprintf(stderr,
                     "trace: wrote %llu events (%llu dropped) to %s\n",
                     static_cast<unsigned long long>(tracer.eventCount()),
                     static_cast<unsigned long long>(tracer.droppedEvents()),
                     tracePath);
      }
    }
    if (reportPath != nullptr) {
      report.captureMetrics();
      std::string error;
      if (!obs::validateReport(report.doc(), &error)) {
        std::fprintf(stderr, "internal error: report fails validation: %s\n",
                     error.c_str());
        ok = false;
      }
      if (!report.writeFile(reportPath, &error)) {
        std::fprintf(stderr, "report: %s\n", error.c_str());
        ok = false;
      } else if (std::strcmp(reportPath, "-") != 0) {
        std::fprintf(stderr, "report: wrote %s\n", reportPath);
      }
    }
    return ok;
  }
};

#if PAO_OBS_ENABLED
/// Writes a pao-report/2 document whose "profile" section is the job-graph
/// profile of the oracle pipeline (--profile-out). A separate file from
/// --report-json so that document stays schema v1 and byte-comparable
/// across thread counts. Returns false (after printing to stderr) when the
/// pipeline graph never ran or on validation/I/O failure.
bool writeProfileReport(const char* path, const obs::GraphProfile& gp,
                        obs::Json config) {
  if (gp.empty()) {
    std::fprintf(stderr,
                 "profile: no pipeline job graph ran (empty design); "
                 "nothing to write\n");
    return false;
  }
  obs::RunReport report("pao_cli analyze");
  report.doc().set("schema", obs::Json(obs::kReportSchemaV2));
  report.section("config") = std::move(config);
  report.section("profile") = obs::profileSectionJson(gp);
  std::string error;
  if (!obs::validateReport(report.doc(), &error)) {
    std::fprintf(stderr,
                 "internal error: profile report fails validation: %s\n",
                 error.c_str());
    return false;
  }
  if (!report.writeFile(path, &error)) {
    std::fprintf(stderr, "profile: %s\n", error.c_str());
    return false;
  }
  if (std::strcmp(path, "-") != 0) {
    std::fprintf(stderr, "profile: wrote %s\n", path);
  }
  return true;
}
#endif

/// Preloads `cache` from `path`. Strict mode exits 1 on any rejection
/// (wrong fingerprint, corruption, unreadable file) so a stale cache never
/// goes unnoticed; keep-going warns and runs without the preload — the
/// cache is a pure accelerator, so the result is unaffected.
void loadCacheFile(core::AccessCache& cache, const char* path,
                   const LoadedDesign& ld, bool keepGoing) {
  std::string error;
  try {
    const std::size_t n =
        cache.load(slurp(path, "cache.io"), ld.tech, ld.lib, &error);
    if (error.empty()) {
      std::fprintf(stderr, "cache: loaded %zu entries from %s\n", n, path);
      return;
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (!keepGoing) {
    std::fprintf(stderr, "cache '%s' rejected: %s\n", path, error.c_str());
    std::exit(1);
  }
  std::fprintf(stderr,
               "warning: cache '%s' unusable (%s); continuing without it\n",
               path, error.c_str());
}

void saveCacheFile(const core::AccessCache& cache, const char* path,
                   const LoadedDesign& ld) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  out << cache.save(ld.tech, ld.lib);
  std::fprintf(stderr, "cache: saved %zu entries to %s\n", cache.size(),
               path);
}

void reportCache(const core::AccessCache& cache) {
  std::fprintf(stderr,
               "  access cache     : %zu entries, %zu hits, %zu misses\n",
               cache.size(), cache.hits(), cache.misses());
}

/// Parses the LEF/DEF pair through the mmap-backed file forms
/// (lefdef::parseLefFile/parseDefFile), the DEF's sections chunked over
/// `numThreads` workers; the result is the same at any count. Diagnostics
/// carry the real file names; in keep-going mode parse errors are printed,
/// recorded as "parse_error" degradation events, and the parsers resync
/// and continue — in strict mode the first error throws ParseError (caught
/// in main → exit 3), as does an unreadable file or the "lef.io"/"def.io"
/// fault point. With `ir` (analyze --stream) the ingest figures go there,
/// for the report's "ingest" section, and to stderr.
void load(LoadedDesign& ld, const char* lefPath, const char* defPath,
          RobustOpts& rob, int numThreads,
          core::IngestReport* ir = nullptr) {
  lefdef::ParseOptions lefOpts;
  lefOpts.file = lefPath;
  lefOpts.recover = rob.keepGoing;
  lefdef::IngestStats lefStats;
  reportDiags(lefdef::parseLefFile(lefPath, ld.tech, ld.lib, lefOpts,
                                   &lefStats),
              rob);
  ld.design.tech = &ld.tech;
  ld.design.lib = &ld.lib;
  lefdef::StreamOptions defOpts;
  defOpts.parse.file = defPath;
  defOpts.parse.recover = rob.keepGoing;
  defOpts.numThreads = numThreads;
  lefdef::IngestStats defStats;
  reportDiags(lefdef::parseDefFile(defPath, ld.design, defOpts, &defStats),
              rob);
  std::fprintf(stderr,
               "loaded '%s': %zu layers, %zu masters, %zu instances, %zu "
               "nets\n",
               ld.design.name.c_str(), ld.tech.layers().size(),
               ld.lib.masters().size(), ld.design.instances.size(),
               ld.design.nets.size());
  if (ir == nullptr) return;
  ir->lefBytes = lefStats.bytes;
  ir->defBytes = defStats.bytes;
  ir->chunks = defStats.chunks;
  ir->components = defStats.components;
  ir->nets = defStats.nets;
  ir->mapped = defStats.mapped;
  ir->legacyFallback = defStats.legacyFallback;
  ir->parseSeconds = defStats.parseSeconds;
  ir->peakRssBytes = util::peakRssBytes();
  const double secs = ir->parseSeconds > 0 ? ir->parseSeconds : 1e-9;
  std::fprintf(stderr,
               "  streamed ingest  : %.1f MB in %zu chunks, %.1f MB/s, "
               "%.0f insts/s, peak RSS %.1f MB%s%s\n",
               static_cast<double>(ir->defBytes) / (1024.0 * 1024.0),
               ir->chunks,
               static_cast<double>(ir->defBytes) / (1024.0 * 1024.0) / secs,
               static_cast<double>(ir->components) / secs,
               static_cast<double>(ir->peakRssBytes) / (1024.0 * 1024.0),
               ir->mapped ? "" : " (read fallback)",
               ir->legacyFallback ? " (gave up: too many errors)" : "");
}

int cmdList() {
  std::fprintf(stderr, "%-16s %10s %8s %10s %6s\n", "preset", "#cells",
               "#macros", "#nets", "node");
  int idx = 0;
  for (const benchgen::TestcaseSpec& s : benchgen::ispd18Suite()) {
    std::fprintf(stderr, "%-2d %-13s %10zu %8d %10zu %6s\n", idx++,
                 s.name.c_str(), s.numCells, s.numMacros, s.numNets,
                 s.node == benchgen::Node::k45 ? "45nm" : "32nm");
  }
  const benchgen::TestcaseSpec aes = benchgen::aes14Spec();
  std::fprintf(stderr, "%-2s %-13s %10zu %8d %10zu %6s\n", "a",
               aes.name.c_str(), aes.numCells, aes.numMacros, aes.numNets,
               "14nm");
  const benchgen::TestcaseSpec mixed = benchgen::mixedSpec();
  std::fprintf(stderr, "%-2s %-13s %10zu %8d %10zu %6s\n", "m",
               mixed.name.c_str(), mixed.numCells, mixed.numMacros,
               mixed.numNets,
               mixed.node == benchgen::Node::k45 ? "45nm" : "32nm");
  const benchgen::HugeSpec huge = benchgen::hugeSpec();
  std::fprintf(stderr, "%-2s %-13s %10zu %8d %10zu %6s\n", "h",
               huge.name.c_str(), huge.numCells, 0, huge.numNets,
               huge.node == benchgen::Node::k45 ? "45nm" : "32nm");
  return 0;
}

int cmdGen(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string which = argv[2];
  const double scale = std::atof(argv[3]);
  const std::string prefix = argv[4];

  if (which == "h" || which == "huge") {
    // The huge preset streams the DEF straight to disk — the design is
    // never materialized, so scale 6+ (10M instances) fits in memory.
    const benchgen::HugeSpec hs = benchgen::hugeSpec();
    const benchgen::HugeTechLib tl = benchgen::makeHugeTechLib(hs);
    std::ofstream lef(prefix + ".lef");
    lef << lefdef::writeLef(*tl.tech, *tl.lib);
    std::ofstream def(prefix + ".def");
    const benchgen::HugeCounts counts = benchgen::writeHugeDef(
        hs, scale > 0 ? scale : 1.0, *tl.tech, *tl.lib, def);
    if (!lef || !def) {
      std::fprintf(stderr, "cannot write %s.lef / %s.def\n", prefix.c_str(),
                   prefix.c_str());
      return 3;
    }
    std::fprintf(stderr,
                 "wrote %s.lef / %s.def (%zu instances, %zu nets, %d rows, "
                 "streamed)\n",
                 prefix.c_str(), prefix.c_str(), counts.cells, counts.nets,
                 counts.rows);
    return 0;
  }

  benchgen::TestcaseSpec spec;
  if (which == "a" || which == "aes14") {
    spec = benchgen::aes14Spec();
  } else if (which == "m" || which == "mixed") {
    spec = benchgen::mixedSpec();
  } else {
    const int idx = std::atoi(which.c_str());
    const auto suite = benchgen::ispd18Suite();
    if (idx < 0 || idx >= static_cast<int>(suite.size())) return usage();
    spec = suite[idx];
  }
  const benchgen::Testcase tc =
      benchgen::generate(spec, scale > 0 ? scale : 1.0);

  std::ofstream lef(prefix + ".lef");
  lef << lefdef::writeLef(*tc.tech, *tc.lib);
  std::ofstream def(prefix + ".def");
  def << lefdef::writeDef(*tc.design);
  std::fprintf(stderr, "wrote %s.lef / %s.def (%zu instances, %zu nets)\n",
               prefix.c_str(), prefix.c_str(), tc.design->instances.size(),
               tc.design->nets.size());
  return 0;
}

int cmdAnalyze(int argc, char** argv) {
  if (argc < 4) return usage();

  core::OracleConfig cfg = core::withBcaConfig();
  std::string mode = "bca";
  std::size_t reportFailed = 0;
  const char* cacheIn = nullptr;
  const char* cacheOut = nullptr;
  ObsOutputs outputs;
  RobustOpts rob;
  bool badSpec = false;
  bool stream = false;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      mode = argv[++i];
      if (mode == "legacy") cfg = core::legacyConfig();
      if (mode == "nobca") cfg = core::withoutBcaConfig();
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      cfg.numThreads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--stream") == 0) {
      stream = true;
    } else if (std::strcmp(argv[i], "--report-failed") == 0 && i + 1 < argc) {
      reportFailed = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--cache-in") == 0 && i + 1 < argc) {
      cacheIn = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-out") == 0 && i + 1 < argc) {
      cacheOut = argv[++i];
    } else if (rob.parseFlag(argc, argv, i, badSpec)) {
      if (badSpec) return 2;
    } else if (!outputs.parseFlag(argc, argv, i)) {
      std::fprintf(stderr, "unknown analyze option '%s'\n", argv[i]);
      return usage();
    }
  }
  rob.apply(cfg);

  outputs.startTracing();
  LoadedDesign ld;
  core::IngestReport ingest;
  load(ld, argv[2], argv[3], rob, cfg.numThreads,
       stream ? &ingest : nullptr);

  core::AccessCache cache;
  if (cacheIn != nullptr || cacheOut != nullptr) cfg.cache = &cache;
  if (cacheIn != nullptr) loadCacheFile(cache, cacheIn, ld, rob.keepGoing);

  // Sanity-check the placement before analyzing it.
  const auto placement = db::checkPlacement(ld.design);
  if (!placement.empty()) {
    std::fprintf(stderr, "placement warnings: %zu (first: %s)\n",
                 placement.size(),
                 placement.front().describe(ld.design).c_str());
  }

  // A read-only session rather than the batch facade, so the report can
  // carry session-level stats (class builds, cache hits) too.
  const core::OracleSession session(
      static_cast<const db::Design&>(ld.design), cfg);
  const core::OracleResult res = session.snapshot();
  const core::DirtyApStats dirty = core::countDirtyAps(ld.design, res);
  const core::FailedPinStats failed = core::countFailedPins(
      ld.design, res, reportFailed,
      cfg.legacyMode ? core::FailedPinCriterion::kAnyAp
                     : core::FailedPinCriterion::kChosenAp);

  std::fprintf(stderr, "\npin access report\n");
  std::fprintf(stderr, "  unique instances : %zu\n",
               res.unique.classes.size());
  std::fprintf(stderr, "  access points    : %zu (dirty: %zu)\n",
               dirty.totalAps, dirty.dirtyAps);
  std::fprintf(stderr, "  failed pins      : %zu / %zu\n", failed.failedPins,
               failed.totalPins);
  std::fprintf(stderr,
               "  runtime          : %.2f s wall (steps %.2f / %.2f / "
               "%.2f s cpu)\n",
               res.wallSeconds, res.step1CpuSeconds, res.step2CpuSeconds,
               res.step3CpuSeconds);
  if (cfg.cache != nullptr) reportCache(cache);
  if (cacheOut != nullptr) saveCacheFile(cache, cacheOut, ld);
  for (const core::FailedPinDetail& d : failed.details) {
    const db::Instance& inst = ld.design.instances[d.instIdx];
    std::fprintf(stderr, "  FAILED %s (master %s) signal pin #%d\n",
                 inst.name.c_str(), inst.master->name.c_str(), d.sigPinPos);
    for (const drc::Violation& v : d.violations) {
      std::fprintf(stderr, "    %s\n", v.describe().c_str());
    }
  }

  obs::RunReport report("pao_cli analyze");
  report.section("design") =
      core::designSectionJson(ld.tech, ld.lib, ld.design);
  report.section("config") =
      core::analysisConfigJson(mode, cfg.numThreads, cfg.keepGoing);
  report.section("oracle") = core::oracleSectionJson(res, dirty, failed);
  report.section("session") = core::sessionSectionJson(session.stats());
  if (cfg.cache != nullptr) {
    report.section("cache") = core::cacheSectionJson(cache);
  }
  if (stream) {
    // "ingest" is a pao-report/2 section; only streamed runs carry it, so
    // the default analyze report stays v1 and byte-comparable with the
    // service report (tests/serve_smoke.sh).
    report.doc().set("schema", obs::Json(obs::kReportSchemaV2));
    report.section("ingest") = core::ingestSectionJson(ingest);
  }

  int code = failed.failedPins == 0 ? 0 : 1;
  code = finishDegraded(rob, res.degraded, report, code);
  if (outputs.profilePath != nullptr) {
#if PAO_OBS_ENABLED
    // Job spans go to the trace only when both artifacts were asked for:
    // per-node events would otherwise crowd the phase spans out of the
    // submitting thread's ring buffer.
    if (outputs.tracePath != nullptr) {
      obs::recordProfileTrace(session.lastGraphProfile());
    }
    if (!writeProfileReport(
            outputs.profilePath, session.lastGraphProfile(),
            core::analysisConfigJson(mode, cfg.numThreads, cfg.keepGoing)) &&
        code == 0) {
      code = 1;
    }
#else
    std::fprintf(stderr, "--profile-out requires a PAO_OBS=ON build\n");
    if (code == 0) code = 1;
#endif
  }
  if (!outputs.finish(report) && code == 0) code = 1;
  return code;
}

int cmdRoute(int argc, char** argv) {
  if (argc < 4) return usage();
  const char* outPath = nullptr;
  const char* cacheIn = nullptr;
  const char* cacheOut = nullptr;
  int numThreads = 1;
  ObsOutputs outputs;
  RobustOpts rob;
  bool badSpec = false;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      numThreads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--cache-in") == 0 && i + 1 < argc) {
      cacheIn = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-out") == 0 && i + 1 < argc) {
      cacheOut = argv[++i];
    } else if (rob.parseFlag(argc, argv, i, badSpec)) {
      if (badSpec) return 2;
    } else if (!outputs.parseFlag(argc, argv, i)) {
      std::fprintf(stderr, "unknown route option '%s'\n", argv[i]);
      return usage();
    }
  }

  outputs.startTracing();
  LoadedDesign ld;
  load(ld, argv[2], argv[3], rob, numThreads);

  core::OracleConfig oracleCfg = core::withBcaConfig();
  oracleCfg.numThreads = numThreads;
  rob.apply(oracleCfg);
  core::AccessCache cache;
  if (cacheIn != nullptr || cacheOut != nullptr) oracleCfg.cache = &cache;
  if (cacheIn != nullptr) loadCacheFile(cache, cacheIn, ld, rob.keepGoing);
  core::PinAccessOracle oracle(ld.design, oracleCfg);
  const core::OracleResult access = oracle.run();
  router::AccessSource source(ld.design, access,
                              router::AccessMode::kPattern);
  router::RouterConfig routerCfg;
  routerCfg.numThreads = numThreads;
  router::DetailedRouter rtr(ld.design, source, routerCfg);
  const router::RouteResult rr = rtr.run();

  std::fprintf(stderr, "\nrouting report\n");
  std::fprintf(stderr, "  nets             : %zu routed, %zu failed\n",
               rr.stats.routedNets, rr.stats.failedNets);
  std::fprintf(stderr, "  pin terms        : %zu unconnected\n",
               rr.stats.skippedTerms);
  std::fprintf(stderr, "  vias / wires     : %zu / %zu\n", rr.stats.viaCount,
               rr.stats.wireShapes);
  std::fprintf(stderr, "  DRC violations   : %zu total, %zu access-related\n",
               rr.violations.size(), rr.accessViolations);
  std::fprintf(stderr, "  runtime          : %.2f s\n", rr.stats.seconds);
  if (oracleCfg.cache != nullptr) reportCache(cache);
  if (cacheOut != nullptr) saveCacheFile(cache, cacheOut, ld);

  if (outPath != nullptr) {
    std::vector<lefdef::RoutedShape> routed;
    for (const router::RouteShape& s : rr.shapes) {
      const db::Layer& layer = ld.tech.layer(s.layer);
      if (s.isVia && layer.type == db::LayerType::kCut) {
        routed.push_back({s.net, s.layer, s.rect, true});
      } else if (!s.isVia && layer.type == db::LayerType::kRouting) {
        routed.push_back({s.net, s.layer, s.rect, false});
      }
    }
    std::ofstream out(outPath);
    out << lefdef::writeRoutedDef(ld.design, routed);
    std::fprintf(stderr, "  wrote %s\n", outPath);
  }

  obs::RunReport report("pao_cli route");
  report.section("design") =
      core::designSectionJson(ld.tech, ld.lib, ld.design);
  report.section("config").set("threads", obs::Json(numThreads));
  report.section("oracle") = core::oracleSectionJson(access);
  obs::Json& routerJ = report.section("router");
  routerJ.set("routedNets", obs::Json(rr.stats.routedNets));
  routerJ.set("failedNets", obs::Json(rr.stats.failedNets));
  routerJ.set("skippedTerms", obs::Json(rr.stats.skippedTerms));
  routerJ.set("viaCount", obs::Json(rr.stats.viaCount));
  routerJ.set("wireShapes", obs::Json(rr.stats.wireShapes));
  routerJ.set("rippedNets", obs::Json(rr.stats.rippedNets));
  routerJ.set("seconds", obs::Json(rr.stats.seconds));
  obs::Json& drcJ = report.section("drc");
  drcJ.set("violations", obs::Json(rr.violations.size()));
  drcJ.set("accessViolations", obs::Json(rr.accessViolations));
  if (oracleCfg.cache != nullptr) {
    report.section("cache") = core::cacheSectionJson(cache);
  }

  int code = finishDegraded(rob, access.degraded, report, 0);
  if (!outputs.finish(report) && code == 0) code = 1;
  return code;
}

// Measures the incremental OracleSession against fresh batch reruns over K
// random row-snapped instance moves, asserting after every move that the
// chosen patterns and the failed-pin evaluation (session.failedPins() vs
// countFailedPins of the fresh run) are equivalent, and timing both
// evaluations. Exit 1 on any divergence.
int cmdBenchIncremental(int argc, char** argv) {
  if (argc < 4) return usage();
  int moves = 8;
  int numThreads = 1;
  std::uint64_t seed = 1;
  ObsOutputs outputs;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--moves") == 0 && i + 1 < argc) {
      moves = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      numThreads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (!outputs.parseFlag(argc, argv, i)) {
      std::fprintf(stderr, "unknown bench-incremental option '%s'\n",
                   argv[i]);
      return usage();
    }
  }

  outputs.startTracing();
  LoadedDesign ld;
  RobustOpts rob;  // bench is always strict
  load(ld, argv[2], argv[3], rob, numThreads);
  if (ld.design.instances.empty()) {
    std::fprintf(stderr, "no instances to move\n");
    return 1;
  }

  core::AccessCache cache;
  core::OracleConfig cfg = core::withBcaConfig();
  cfg.numThreads = numThreads;
  cfg.cache = &cache;

  using Clock = std::chrono::steady_clock;
  const auto since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  const auto tInit = Clock::now();
  core::OracleSession session(ld.design, cfg);
  const double initialSeconds = since(tInit);
  // The first evaluation checks every pin; the moves below re-check only
  // what each one reaches.
  const std::size_t totalPins = session.failedPins().totalPins;

  std::uint64_t state = seed;
  const auto nextRand = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 17;  // the low LCG bits are weak; keep the upper ones
  };

  double sessionSeconds = 0;
  double freshSeconds = 0;
  std::size_t sessionDp = 0;
  std::size_t freshDp = 0;
  std::size_t dirtySum = 0;
  std::size_t clusterSum = 0;
  double incrementalEvalSeconds = 0;
  double freshEvalSeconds = 0;
  std::size_t pinsRechecked = 0;
  for (int m = 0; m < moves; ++m) {
    const int inst =
        static_cast<int>(nextRand() % ld.design.instances.size());
    geom::Point target = ld.design.instances[inst].origin;
    if (!ld.design.rows.empty()) {
      const db::Row& row =
          ld.design.rows[nextRand() % ld.design.rows.size()];
      const std::uint64_t sites =
          row.numSites > 0 ? static_cast<std::uint64_t>(row.numSites) : 1;
      target = geom::Point{
          row.origin.x +
              static_cast<geom::Coord>(nextRand() % sites) * row.siteWidth,
          row.origin.y};
    } else {
      const geom::Coord w = ld.design.instances[inst].master->width;
      target.x = ld.design.dieArea.xlo +
                 static_cast<geom::Coord>(nextRand() % 16) * w;
    }

    const std::size_t dpBefore = session.stats().clusterDpRuns;
    const auto tMove = Clock::now();
    session.moveInstance(inst, target);
    sessionSeconds += since(tMove);
    sessionDp += session.stats().clusterDpRuns - dpBefore;
    dirtySum += session.stats().lastDirtyClusters;
    clusterSum += session.stats().lastClusterCount;

    // Fresh batch run over the mutated design (read-only session = exactly
    // what PinAccessOracle::run does), sharing the same cache.
    const db::Design& cref = ld.design;
    const auto tFresh = Clock::now();
    const core::OracleSession fresh(cref, cfg);
    freshSeconds += since(tFresh);
    freshDp += fresh.stats().clusterDpRuns;

    if (fresh.chosenPattern() != session.chosenPattern()) {
      std::fprintf(stderr,
                   "MISMATCH after move %d: session chosenPattern differs "
                   "from a fresh batch run\n",
                   m);
      return 1;
    }

    const auto tEval = Clock::now();
    const core::FailedPinStats incremental = session.failedPins();
    incrementalEvalSeconds += since(tEval);
    pinsRechecked += session.stats().lastPinsRechecked;
    const core::OracleResult freshResult = fresh.snapshot();
    const auto tFreshEval = Clock::now();
    const core::FailedPinStats batch = core::countFailedPins(cref, freshResult);
    freshEvalSeconds += since(tFreshEval);
    if (incremental.totalPins != batch.totalPins ||
        incremental.failedPins != batch.failedPins) {
      std::fprintf(stderr,
                   "MISMATCH after move %d: session failedPins %zu/%zu, "
                   "fresh batch evaluation %zu/%zu\n",
                   m, incremental.failedPins, incremental.totalPins,
                   batch.failedPins, batch.totalPins);
      return 1;
    }
  }

  std::fprintf(stderr, "\nincremental bench (%d moves, seed %llu)\n", moves,
               static_cast<unsigned long long>(seed));
  std::fprintf(stderr, "  initial build    : %.3f s\n", initialSeconds);
  std::fprintf(stderr, "  session moves    : %.3f s total (%.4f s/move)\n",
               sessionSeconds, moves > 0 ? sessionSeconds / moves : 0.0);
  std::fprintf(stderr, "  fresh reruns     : %.3f s total (%.4f s/move)\n",
               freshSeconds, moves > 0 ? freshSeconds / moves : 0.0);
  std::fprintf(stderr, "  speedup          : %.1fx\n",
               sessionSeconds > 0 ? freshSeconds / sessionSeconds : 0.0);
  std::fprintf(stderr, "  cluster DP runs  : %zu session vs %zu fresh\n",
               sessionDp, freshDp);
  std::fprintf(stderr, "  dirty clusters   : %zu of %zu visited\n", dirtySum,
               clusterSum);
  std::fprintf(stderr, "  session eval     : %.3f s total (%.4f s/move)\n",
               incrementalEvalSeconds,
               moves > 0 ? incrementalEvalSeconds / moves : 0.0);
  std::fprintf(stderr, "  fresh eval       : %.3f s total (%.4f s/move)\n",
               freshEvalSeconds, moves > 0 ? freshEvalSeconds / moves : 0.0);
  std::fprintf(stderr, "  pins re-checked  : %zu of %zu evaluated\n",
               pinsRechecked, totalPins * static_cast<std::size_t>(moves));
  reportCache(cache);
  std::fprintf(stderr, "  equivalence      : OK\n");

  obs::RunReport report("pao_cli bench-incremental");
  report.section("design") =
      core::designSectionJson(ld.tech, ld.lib, ld.design);
  obs::Json& config = report.section("config");
  config.set("moves", obs::Json(moves));
  config.set("seed", obs::Json(seed));
  config.set("threads", obs::Json(numThreads));
  obs::Json& bench = report.section("bench");
  bench.set("initialSeconds", obs::Json(initialSeconds));
  bench.set("sessionMoveSeconds", obs::Json(sessionSeconds));
  bench.set("freshRerunSeconds", obs::Json(freshSeconds));
  bench.set("sessionDpRuns", obs::Json(sessionDp));
  bench.set("freshDpRuns", obs::Json(freshDp));
  bench.set("dirtyClusters", obs::Json(dirtySum));
  bench.set("visitedClusters", obs::Json(clusterSum));
  bench.set("incrementalEvalSeconds", obs::Json(incrementalEvalSeconds));
  bench.set("freshEvalSeconds", obs::Json(freshEvalSeconds));
  bench.set("pinsRechecked", obs::Json(pinsRechecked));
  bench.set("totalPins", obs::Json(totalPins));
  report.section("session") = core::sessionSectionJson(session.stats());
  report.section("cache") = core::cacheSectionJson(cache);
  if (!outputs.finish(report)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): first statement of main, no
  // other threads exist yet and nothing ever calls setenv.
  if (const char* spec = std::getenv("PAO_FAULTS")) {
    std::string error;
    if (!pao::util::FaultRegistry::instance().configure(spec, &error)) {
      std::fprintf(stderr, "PAO_FAULTS: %s\n", error.c_str());
      return 2;
    }
  }
  try {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (cmd == "list") return cmdList();
    if (cmd == "gen") return cmdGen(argc, argv);
    if (cmd == "analyze") return cmdAnalyze(argc, argv);
    if (cmd == "route") return cmdRoute(argc, argv);
    if (cmd == "bench-incremental") return cmdBenchIncremental(argc, argv);
    return usage();
  } catch (const std::exception& e) {
    // Strict-mode contract: invalid input and injected faults surface as a
    // diagnostic and exit 3 — never an abort/unhandled-exception crash.
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 3;
  }
}
