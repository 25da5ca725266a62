#include "obs/report.hpp"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"

#ifndef PAO_GIT_SHA
#define PAO_GIT_SHA "unknown"
#endif

namespace pao::obs {

RunReport::RunReport(std::string_view tool) {
  doc_ = Json::object();
  doc_.set("schema", Json(kReportSchema));
  doc_.set("tool", Json(tool));
  doc_.set("env", environmentJson());
}

void RunReport::captureMetrics() {
  doc_.set("metrics", Registry::instance().snapshot());
}

bool RunReport::writeFile(const std::string& path, std::string* error) const {
  const std::string text = dump();
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  const bool ok = written == text.size() && std::fclose(f) == 0;
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

Json environmentJson() {
  Json env = Json::object();
  env.set("hwThreads",
          Json(static_cast<long long>(std::thread::hardware_concurrency())));
  env.set("gitSha", Json(PAO_GIT_SHA));
  return env;
}

namespace {

bool isKnownTopLevelKey(std::string_view key) {
  static constexpr std::string_view kKnown[] = {
      "schema", "tool",    "env",   "design", "config", "args",
      "timings", "oracle", "session", "cache", "drc",   "router",
      "bench",  "metrics", "notes", "degraded", "profile", "ingest",
      "trace"};
  for (const std::string_view k : kKnown) {
    if (k == key) return true;
  }
  return false;
}

bool failValidation(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

}  // namespace

bool validateMetricsSnapshot(const Json& metrics, std::string* error) {
  if (!metrics.isObject()) {
    return failValidation(error, "metrics is not an object");
  }
  for (const std::string_view kind : {"counters", "gauges", "histograms"}) {
    const Json* group = metrics.find(kind);
    if (group == nullptr) {
      return failValidation(error,
                            "metrics." + std::string(kind) + " missing");
    }
    if (!group->isObject()) {
      return failValidation(error,
                            "metrics." + std::string(kind) + " not an object");
    }
  }
  const Json& counters = *metrics.find("counters");
  std::string prev;
  for (const auto& [name, value] : counters.members()) {
    if (!value.isInt()) {
      return failValidation(error, "counter " + name + " is not an integer");
    }
    if (!prev.empty() && !(prev < name)) {
      return failValidation(error, "counters not canonically sorted at " +
                                       name);
    }
    prev = name;
  }
  const Json& histograms = *metrics.find("histograms");
  for (const auto& [name, hist] : histograms.members()) {
    if (!hist.isObject() || hist.find("count") == nullptr ||
        hist.find("bounds") == nullptr || hist.find("buckets") == nullptr) {
      return failValidation(error, "histogram " + name + " malformed");
    }
    const Json& bounds = *hist.find("bounds");
    const Json& buckets = *hist.find("buckets");
    if (!bounds.isArray() || !buckets.isArray() ||
        buckets.items().size() != bounds.items().size() + 1) {
      return failValidation(error,
                            "histogram " + name + " bucket shape wrong");
    }
  }
  return true;
}

bool validateReport(const Json& doc, std::string* error) {
  if (!doc.isObject()) return failValidation(error, "report is not an object");
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->isString()) {
    return failValidation(error, "missing string 'schema'");
  }
  if (schema->asString() != kReportSchema &&
      schema->asString() != kReportSchemaV2) {
    return failValidation(error,
                          "unknown schema '" + schema->asString() + "'");
  }
  const Json* tool = doc.find("tool");
  if (tool == nullptr || !tool->isString() || tool->asString().empty()) {
    return failValidation(error, "missing string 'tool'");
  }
  const Json* env = doc.find("env");
  if (env == nullptr || !env->isObject()) {
    return failValidation(error, "missing object 'env'");
  }
  const Json* hw = env->find("hwThreads");
  if (hw == nullptr || !hw->isInt()) {
    return failValidation(error, "env.hwThreads missing or not an integer");
  }
  const Json* sha = env->find("gitSha");
  if (sha == nullptr || !sha->isString()) {
    return failValidation(error, "env.gitSha missing or not a string");
  }
  for (const auto& [key, value] : doc.members()) {
    (void)value;
    if (!isKnownTopLevelKey(key)) {
      return failValidation(error, "unknown top-level key '" + key + "'");
    }
  }
  const Json* metrics = doc.find("metrics");
  if (metrics != nullptr && !validateMetricsSnapshot(*metrics, error)) {
    return false;
  }
  const Json* profile = doc.find("profile");
  if (profile != nullptr) {
    if (schema->asString() != kReportSchemaV2) {
      return failValidation(error,
                            "'profile' section requires schema pao-report/2");
    }
    if (!validateProfileSection(*profile, error)) return false;
  }
  const Json* trace = doc.find("trace");
  if (trace != nullptr) {
    if (!trace->isObject()) {
      return failValidation(error, "'trace' is not an object");
    }
    for (const std::string_view key : {"eventCount", "droppedEvents"}) {
      const Json* v = trace->find(key);
      if (v == nullptr || !v->isInt() || v->asInt() < 0) {
        return failValidation(error, "trace." + std::string(key) +
                                         " missing or not a count");
      }
    }
  }
  const Json* ingest = doc.find("ingest");
  if (ingest != nullptr) {
    if (schema->asString() != kReportSchemaV2) {
      return failValidation(error,
                            "'ingest' section requires schema pao-report/2");
    }
    if (!ingest->isObject()) {
      return failValidation(error, "'ingest' is not an object");
    }
    for (const std::string_view key :
         {"bytes", "chunks", "components", "nets", "peakRssBytes"}) {
      const Json* v = ingest->find(key);
      if (v == nullptr || !v->isInt()) {
        return failValidation(error, "ingest." + std::string(key) +
                                         " missing or not an integer");
      }
    }
    for (const std::string_view key : {"mbPerSec", "instsPerSec"}) {
      const Json* v = ingest->find(key);
      if (v == nullptr || !v->isNumber()) {
        return failValidation(error, "ingest." + std::string(key) +
                                         " missing or not a number");
      }
    }
    for (const std::string_view key : {"mapped", "legacyFallback"}) {
      const Json* v = ingest->find(key);
      if (v == nullptr || !v->isBool()) {
        return failValidation(error, "ingest." + std::string(key) +
                                         " missing or not a boolean");
      }
    }
  }
  return true;
}

namespace {

bool hasSuffix(std::string_view key, std::string_view suffix) {
  return key.size() > suffix.size() &&
         key.substr(key.size() - suffix.size()) == suffix;
}

bool isTimingKey(std::string_view key) {
  if (key == "timings" || key == "threads" || key == "hwThreads" ||
      key == "seconds") {
    return true;
  }
  return hasSuffix(key, "Seconds") || hasSuffix(key, "Micros");
}

/// Machine-valued ingest keys: throughput and memory depend on the host
/// (and the run), not the work, so they are stripped like timings.
bool isMachineRateKey(std::string_view key) {
  return key == "mbPerSec" || key == "instsPerSec" || key == "peakRssBytes";
}

/// Schedule-valued "profile" keys: measured on one particular run with one
/// particular worker count. The surviving keys ("jobs", "criticalPath")
/// describe the graph's structure.
bool isProfileScheduleKey(std::string_view key) {
  for (const std::string_view k :
       {"workers", "steals", "headroom", "speedup", "perWorker", "queue"}) {
    if (k == key) return true;
  }
  return false;
}

Json normalizeImpl(const Json& doc, bool insideProfile) {
  switch (doc.type()) {
    case Json::Type::kObject: {
      Json out = Json::object();
      for (const auto& [key, value] : doc.members()) {
        if (isTimingKey(key)) continue;
        if (isMachineRateKey(key)) continue;
        // The trace section describes a recording, present only when traced
        // and schedule-dependent, not the work.
        if (key == "trace") continue;
        if (insideProfile && isProfileScheduleKey(key)) continue;
        out.set(key, normalizeImpl(value, insideProfile || key == "profile"));
      }
      return out;
    }
    case Json::Type::kArray: {
      Json out = Json::array();
      for (const Json& item : doc.items()) {
        out.push(normalizeImpl(item, insideProfile));
      }
      return out;
    }
    default:
      return doc;
  }
}

}  // namespace

Json normalizeForCompare(const Json& doc) {
  return normalizeImpl(doc, /*insideProfile=*/false);
}

bool validateTrace(const Json& doc, int minSpans, bool requireWorker,
                   std::string* error, bool allowDrops) {
  if (!doc.isObject()) return failValidation(error, "trace is not an object");
  const Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->isArray()) {
    return failValidation(error, "missing array 'traceEvents'");
  }
  const Json* other = doc.find("otherData");
  const Json* dropped = other ? other->find("droppedEvents") : nullptr;
  if (!allowDrops && dropped != nullptr && dropped->asDouble() > 0) {
    return failValidation(error, dropped->dump() + " events were dropped");
  }
  std::vector<std::string> spanNames;
  std::vector<const Json*> spans;
  for (const Json& ev : events->items()) {
    if (!ev.isObject()) return failValidation(error, "event is not an object");
    const Json* name = ev.find("name");
    const Json* ph = ev.find("ph");
    const Json* ts = ev.find("ts");
    if (name == nullptr || !name->isString() || ph == nullptr ||
        !ph->isString() || ts == nullptr || !ts->isNumber()) {
      return failValidation(error, "event missing name/ph/ts");
    }
    if (ph->asString() != "X") continue;
    const Json* dur = ev.find("dur");
    const Json* tid = ev.find("tid");
    if (dur == nullptr || !dur->isNumber() || tid == nullptr ||
        !tid->isNumber()) {
      return failValidation(error, "complete event missing dur/tid");
    }
    spans.push_back(&ev);
    bool seen = false;
    for (const std::string& s : spanNames) {
      if (s == name->asString()) {
        seen = true;
        break;
      }
    }
    if (!seen) spanNames.push_back(name->asString());
  }
  if (static_cast<int>(spanNames.size()) < minSpans) {
    return failValidation(
        error, "expected at least " + std::to_string(minSpans) +
                   " distinct spans, found " +
                   std::to_string(spanNames.size()));
  }
  if (!requireWorker) return true;
  static constexpr std::string_view kWorkerSuffix = ".worker";
  for (const Json* worker : spans) {
    const std::string& wname = worker->find("name")->asString();
    if (wname.size() <= kWorkerSuffix.size() ||
        wname.substr(wname.size() - kWorkerSuffix.size()) != kWorkerSuffix) {
      continue;
    }
    const std::string parentName =
        wname.substr(0, wname.size() - kWorkerSuffix.size());
    const double wts = worker->find("ts")->asDouble();
    const double wend = wts + worker->find("dur")->asDouble();
    for (const Json* parent : spans) {
      if (parent->find("name")->asString() != parentName) continue;
      const double pts = parent->find("ts")->asDouble();
      const double pend = pts + parent->find("dur")->asDouble();
      if (wts >= pts && wend <= pend) return true;  // nested in time
    }
  }
  return failValidation(error,
                        "no '<parent>.worker' span nested inside its parent");
}

}  // namespace pao::obs
