#include "pao/report_json.hpp"

#include <utility>

#include "db/design.hpp"
#include "db/lib.hpp"
#include "db/tech.hpp"

namespace pao::core {

obs::Json designSectionJson(const db::Tech& tech, const db::Library& lib,
                            const db::Design& design) {
  obs::Json j = obs::Json::object();
  j.set("name", obs::Json(design.name));
  j.set("layers", obs::Json(tech.layers().size()));
  j.set("masters", obs::Json(lib.masters().size()));
  j.set("instances", obs::Json(design.instances.size()));
  j.set("nets", obs::Json(design.nets.size()));
  return j;
}

obs::Json analysisConfigJson(const std::string& mode, int threads,
                             bool keepGoing) {
  obs::Json j = obs::Json::object();
  j.set("mode", obs::Json(mode));
  j.set("threads", obs::Json(threads));
  j.set("keepGoing", obs::Json(keepGoing));
  return j;
}

obs::Json oracleSectionJson(const OracleResult& res) {
  obs::Json j = obs::Json::object();
  std::size_t populated = 0;
  for (const db::UniqueInstance& ui : res.unique.classes) {
    if (!ui.members.empty()) ++populated;
  }
  j.set("uniqueInstances", obs::Json(populated));
  j.set("totalAps", obs::Json(res.totalAps()));
  obs::Json timings = obs::Json::object();
  timings.set("step1CpuSeconds", obs::Json(res.step1CpuSeconds));
  timings.set("step2CpuSeconds", obs::Json(res.step2CpuSeconds));
  timings.set("step3CpuSeconds", obs::Json(res.step3CpuSeconds));
  timings.set("wallSeconds", obs::Json(res.wallSeconds));
  j.set("timings", std::move(timings));
  return j;
}

obs::Json oracleSectionJson(const OracleResult& res, const DirtyApStats& dirty,
                            const FailedPinStats& failed) {
  obs::Json j = oracleSectionJson(res);
  j.set("dirtyAps", obs::Json(dirty.dirtyAps));
  j.set("failedPins", obs::Json(failed.failedPins));
  j.set("totalPins", obs::Json(failed.totalPins));
  return j;
}

obs::Json sessionSectionJson(const OracleSession::Stats& stats) {
  obs::Json j = obs::Json::object();
  j.set("mutations", obs::Json(stats.mutations));
  j.set("clusterDpRuns", obs::Json(stats.clusterDpRuns));
  j.set("lastDirtyClusters", obs::Json(stats.lastDirtyClusters));
  j.set("lastClusterCount", obs::Json(stats.lastClusterCount));
  j.set("classBuilds", obs::Json(stats.classBuilds));
  j.set("cacheHits", obs::Json(stats.cacheHits));
  // Step-3 pair-check count (the same at any thread count); the graph/steal
  // stats stay out of the report because they are schedule-dependent.
  j.set("pairChecks", obs::Json(stats.pairChecks));
  return j;
}

obs::Json cacheSectionJson(const AccessCache& cache) {
  obs::Json j = obs::Json::object();
  j.set("entries", obs::Json(cache.size()));
  j.set("hits", obs::Json(cache.hits()));
  j.set("misses", obs::Json(cache.misses()));
  return j;
}

obs::Json degradedSectionJson(const std::vector<DegradedEvent>& events) {
  obs::Json arr = obs::Json::array();
  for (const DegradedEvent& e : events) {
    obs::Json j = obs::Json::object();
    j.set("kind", obs::Json(e.kind));
    j.set("cls", obs::Json(static_cast<long long>(e.cls)));
    j.set("detail", obs::Json(e.detail));
    arr.push(std::move(j));
  }
  return arr;
}

obs::Json ingestSectionJson(const IngestReport& r) {
  obs::Json j = obs::Json::object();
  j.set("bytes", obs::Json(r.defBytes));
  j.set("lefBytes", obs::Json(r.lefBytes));
  j.set("chunks", obs::Json(r.chunks));
  j.set("components", obs::Json(r.components));
  j.set("nets", obs::Json(r.nets));
  j.set("mapped", obs::Json(r.mapped));
  j.set("legacyFallback", obs::Json(r.legacyFallback));
  j.set("parseSeconds", obs::Json(r.parseSeconds));
  const double secs = r.parseSeconds > 0 ? r.parseSeconds : 1e-9;
  j.set("mbPerSec",
        obs::Json(static_cast<double>(r.defBytes) / (1024.0 * 1024.0) /
                  secs));
  j.set("instsPerSec",
        obs::Json(static_cast<double>(r.components) / secs));
  j.set("peakRssBytes", obs::Json(static_cast<long long>(r.peakRssBytes)));
  return j;
}

}  // namespace pao::core
