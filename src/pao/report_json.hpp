// pao-report/1 section builders shared by the front ends (pao_cli and
// pao_serve). The service-level equivalence gate (tests/serve_smoke.sh)
// byte-compares a normalized service report against `pao_cli analyze` on
// the same design, so both must derive every section from one place —
// keys, insertion order and value derivation included. Keep section shapes
// here rather than open-coding JSON in a tool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "pao/access_cache.hpp"
#include "pao/evaluate.hpp"
#include "pao/oracle.hpp"
#include "pao/session.hpp"

namespace pao::core {

/// "design" section: the loaded design's headline counts.
obs::Json designSectionJson(const db::Tech& tech, const db::Library& lib,
                            const db::Design& design);

/// "config" section for an analysis run: {mode, threads, keepGoing}.
/// ("threads" is a timing-adjacent key stripped by normalizeForCompare.)
obs::Json analysisConfigJson(const std::string& mode, int threads,
                             bool keepGoing);

/// "oracle" section base: step counts plus both clocks per step (see
/// OracleResult's timing doc in src/pao/oracle.hpp for the semantics).
/// `uniqueInstances` counts populated classes only: an incremental session
/// may retain empty (all-members-removed) class slots that a fresh batch
/// run never creates, and those must not break report equivalence.
obs::Json oracleSectionJson(const OracleResult& res);

/// "oracle" section with the evaluation columns appended (analyze shape).
obs::Json oracleSectionJson(const OracleResult& res, const DirtyApStats& dirty,
                            const FailedPinStats& failed);

/// "session" section: OracleSession incrementality counters.
obs::Json sessionSectionJson(const OracleSession::Stats& stats);

/// "cache" section: AccessCache size and hit/miss counters.
obs::Json cacheSectionJson(const AccessCache& cache);

/// "degraded" section: one object per event, in the order given (callers
/// sort canonically first — see OracleSession::snapshot()).
obs::Json degradedSectionJson(const std::vector<DegradedEvent>& events);

/// Inputs for the "ingest" section (pao-report/2, streamed front end only).
/// Plain values rather than lefdef::IngestStats so pao_core stays
/// independent of the lefdef layer; pao_cli copies the stats over.
struct IngestReport {
  std::size_t lefBytes = 0;
  std::size_t defBytes = 0;
  std::size_t chunks = 0;
  std::size_t components = 0;
  std::size_t nets = 0;
  bool mapped = false;
  bool legacyFallback = false;   ///< recovery gave up (GEN001); see IngestStats
  double parseSeconds = 0;       ///< DEF parse wall time
  std::uint64_t peakRssBytes = 0;  ///< util::peakRssBytes() after ingest
};

/// "ingest" section: sizes, chunking, throughput and peak RSS of a streamed
/// parse. mbPerSec/instsPerSec/peakRssBytes are machine-valued and stripped
/// by obs::normalizeForCompare; the count keys are schedule-invariant.
obs::Json ingestSectionJson(const IngestReport& r);

}  // namespace pao::core
