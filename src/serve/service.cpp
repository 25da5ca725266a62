#include "serve/service.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "geom/orient.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/stream.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "pao/evaluate.hpp"
#include "pao/report_json.hpp"
#include "serve/protocol.hpp"
#include "util/jobs.hpp"

namespace pao::serve {

namespace {

/// Per-request failure that becomes an {"ok": false} line; carries one of
/// the stable SRVnnn codes from protocol.hpp.
struct ProtocolError {
  std::string code;
  std::string message;
};

[[noreturn]] void fail(std::string_view code, std::string message) {
  throw ProtocolError{std::string(code), std::move(message)};
}

const obs::Json& requireField(const obs::Json& doc, const char* key) {
  const obs::Json* v = doc.find(key);
  if (v == nullptr) {
    fail(kErrBadField, std::string("missing field '") + key + "'");
  }
  return *v;
}

std::string requireString(const obs::Json& doc, const char* key) {
  const obs::Json& v = requireField(doc, key);
  if (!v.isString()) {
    fail(kErrBadField, std::string("field '") + key + "' must be a string");
  }
  return v.asString();
}

long long requireInt(const obs::Json& doc, const char* key) {
  const obs::Json& v = requireField(doc, key);
  if (!v.isInt()) {
    fail(kErrBadField, std::string("field '") + key + "' must be an integer");
  }
  return v.asInt();
}

}  // namespace

Service::Service(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.tenantBudget < 1) cfg_.tenantBudget = 1;
}

Service::~Service() = default;

bool Service::tryAdmit(const Request& req) {
  if (req.tenant.empty()) return true;
  const std::lock_guard<std::mutex> lock(mu_);
  int& count = inflight_[req.tenant];
  if (count >= cfg_.tenantBudget) return false;
  ++count;
  return true;
}

void Service::release(const Request& req) {
  if (req.tenant.empty()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = inflight_.find(req.tenant);
  if (it != inflight_.end() && it->second > 0) --it->second;
}

std::size_t Service::inflight(const std::string& tenant) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = inflight_.find(tenant);
  return it == inflight_.end() ? 0 : static_cast<std::size_t>(it->second);
}

std::size_t Service::inflightTotal() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [tenant, count] : inflight_) {
    total += static_cast<std::size_t>(count);
  }
  return total;
}

std::string Service::handleLine(const std::string& line) {
  const Request req = parseRequest(line);
  if (!tryAdmit(req)) {
    PAO_COUNTER_INC("pao.serve.admission_rejects");
    const std::uint64_t reqId =
        nextRequestId_.fetch_add(1, std::memory_order_relaxed);
    return errorLine(kErrBusy,
                     "tenant '" + req.tenant + "' has no in-flight budget left",
                     reqId);
  }
  const std::string response = dispatch(req);
  release(req);
  return response;
}

std::string Service::dispatch(const Request& req) {
  const std::uint64_t reqId =
      nextRequestId_.fetch_add(1, std::memory_order_relaxed);
  PAO_TRACE_SCOPE("serve.request",
                  obs::Json::object().set("req", obs::Json(reqId)));
  const auto t0 = std::chrono::steady_clock::now();
  std::string out;
  if (req.malformed) {
    out = errorLine(kErrMalformed, req.parseError, reqId);
    PAO_COUNTER_INC("pao.serve.errors_total");
  } else {
    try {
      out = okLine(dispatchCommand(req));
    } catch (const ProtocolError& e) {
      out = errorLine(e.code, e.message, reqId);
      PAO_COUNTER_INC("pao.serve.errors_total");
    } catch (const std::exception& e) {
      out = errorLine(kErrInternal, e.what(), reqId);
      PAO_COUNTER_INC("pao.serve.errors_total");
    }
  }
  PAO_COUNTER_INC("pao.serve.requests_total");
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  PAO_HISTOGRAM_OBSERVE("pao.serve.request.micros", us);
  maybeLogSlow(req, reqId, us);
  return out;
}

void Service::maybeLogSlow(const Request& req, std::uint64_t requestId,
                           double micros) {
  if (cfg_.slowRequestMicros <= 0 ||
      micros <= static_cast<double>(cfg_.slowRequestMicros)) {
    return;
  }
  PAO_COUNTER_INC("pao.serve.slow_requests");
  // Rate-limit the stderr line to one per second: the counter keeps exact
  // totals, the log is for a human tailing the daemon.
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  constexpr std::int64_t kLogIntervalNs = 1000000000;  // 1 s
  std::int64_t last = lastSlowLogNs_.load(std::memory_order_relaxed);
  if (last != 0 && now - last < kLogIntervalNs) return;
  if (!lastSlowLogNs_.compare_exchange_strong(last, now,
                                              std::memory_order_relaxed)) {
    return;  // another thread logged concurrently
  }
  std::fprintf(stderr,
               "pao_serve: slow request req=%llu cmd=%s tenant=%s "
               "micros=%.0f\n",
               static_cast<unsigned long long>(requestId),
               req.cmd.empty() ? "?" : req.cmd.c_str(),
               req.tenant.empty() ? "-" : req.tenant.c_str(), micros);
}

std::vector<std::string> Service::dispatchBatch(
    const std::vector<Request>& batch) {
  if (batch.size() > 1) {
    std::set<std::string_view> tenants;
    for (const Request& req : batch) {
      if (runsAlone(req) || !tenants.insert(req.tenant).second) {
        throw std::invalid_argument(
            "Service::dispatchBatch: a batch of several requests must hold "
            "at most one request per tenant and no request that runs alone");
      }
    }
  }
  std::vector<std::string> out(batch.size());
  if (cfg_.deterministic || batch.size() <= 1) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out[i] = dispatch(batch[i]);
    }
    return out;
  }
  // No two requests share a tenant, so every request is an independent
  // node. Slot writes only — each node computes one response string;
  // socket I/O stays on the transport thread (lint: executor-hygiene).
  util::JobGraph graph;
  graph.addJobRange(batch.size(), [this, &batch, &out](std::size_t i) {
    out[i] = dispatch(batch[i]);
  });
  graph.run(static_cast<int>(batch.size()));
#if PAO_OBS_ENABLED
  {
    const std::lock_guard<std::mutex> lock(profileMu_);
    lastBatchProfile_ = graph.profile();
  }
#endif
  return out;
}

obs::Json Service::dispatchCommand(const Request& req) {
  if (req.cmd.empty()) fail(kErrBadField, "missing string 'cmd'");
  if (!isKnownCommand(req.cmd)) {
    fail(kErrUnknownCommand, "unknown command '" + req.cmd + "'");
  }
  if (req.cmd == "ping") return cmdPing(req);
  if (req.cmd == "load") return cmdLoad(req);
  if (req.cmd == "unload") return cmdUnload(req);
  if (req.cmd == "move" || req.cmd == "orient" || req.cmd == "add" ||
      req.cmd == "remove") {
    return cmdMutate(req);
  }
  if (req.cmd == "query") return cmdQuery(req);
  if (req.cmd == "report") return cmdReport(req);
  if (req.cmd == "metrics") return cmdMetrics(req);
  if (req.cmd == "profile") return cmdProfile(req);
  if (req.cmd == "history") return cmdHistory(req);
  if (req.cmd == "save") return cmdSave(req);
  // shutdown — answered before the transport begins its teardown.
  shutdown_ = true;
  obs::Json result = obs::Json::object();
  result.set("stopping", obs::Json(true));
  return result;
}

obs::Json Service::cmdPing(const Request&) {
  obs::Json result = obs::Json::object();
  result.set("pong", obs::Json(true));
  return result;
}

obs::Json Service::cmdLoad(const Request& req) {
  if (req.tenant.empty()) fail(kErrBadField, "missing string 'tenant'");
  if (tenants_.count(req.tenant) != 0) {
    fail(kErrTenantExists, "tenant '" + req.tenant + "' already loaded");
  }
  if (tenants_.size() >= cfg_.maxTenants) {
    fail(kErrBadArgument, "tenant limit reached");
  }
  const std::string lefPath = requireString(req.doc, "lef");
  const std::string defPath = requireString(req.doc, "def");

  auto tenant = std::make_unique<Tenant>();
  try {
    // The file forms inject the "lef.io"/"def.io" fault points; an
    // unreadable file throws like a parse error, both SRV007.
    auto fresh = std::make_unique<LibraryBundle>();
    lefdef::ParseOptions lefOpts;
    lefOpts.file = lefPath;
    lefdef::parseLefFile(lefPath, fresh->tech, fresh->lib, lefOpts);
    // Intern by tech/library identity: tenants loading the same LEF share
    // Master pointers, which makes AccessCache signatures collide across
    // tenants — the whole point of the server-side cache.
    const std::string fp = core::AccessCache::fingerprint(fresh->tech,
                                                          fresh->lib);
    const auto it = libraries_.find(fp);
    if (it == libraries_.end()) {
      tenant->bundle = fresh.get();
      libraries_.emplace(fp, std::move(fresh));
    } else {
      tenant->bundle = it->second.get();
    }

    tenant->design = std::make_unique<db::Design>();
    tenant->design->tech = &tenant->bundle->tech;
    tenant->design->lib = &tenant->bundle->lib;
    lefdef::StreamOptions defOpts;
    defOpts.parse.file = defPath;
    defOpts.numThreads = cfg_.numThreads;
    lefdef::parseDefFile(defPath, *tenant->design, defOpts);

    core::OracleConfig cfg = core::withBcaConfig();
    cfg.numThreads = cfg_.numThreads;
    cfg.cache = &cache_;
    tenant->session =
        std::make_unique<core::OracleSession>(*tenant->design, cfg);
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    fail(kErrLoadFailed, e.what());
  }

  const core::OracleSession::Stats& stats = tenant->session->stats();
  // The cache is always wired in serve, so every class build that was not a
  // cache hit is a miss — the cross-tenant warm-cache proof the DESIGN.md
  // tenancy section advertises.
  PAO_COUNTER_ADD("pao.serve.cache.hits", stats.cacheHits);
  PAO_COUNTER_ADD("pao.serve.cache.misses", stats.classBuilds);
  obs::Json result = obs::Json::object();
  result.set("design", core::designSectionJson(tenant->bundle->tech,
                                               tenant->bundle->lib,
                                               *tenant->design));
  result.set("classBuilds", obs::Json(stats.classBuilds));
  result.set("cacheHits", obs::Json(stats.cacheHits));
  tenants_.emplace(req.tenant, std::move(tenant));
  PAO_COUNTER_INC("pao.serve.tenants_loaded");
  return result;
}

obs::Json Service::cmdUnload(const Request& req) {
  requireTenant(req);
  tenants_.erase(req.tenant);
  obs::Json result = obs::Json::object();
  result.set("unloaded", obs::Json(true));
  return result;
}

obs::Json Service::cmdMutate(const Request& req) {
  Tenant& t = requireTenant(req);
  core::OracleSession& session = *t.session;
  int inst = -1;
  if (req.cmd == "add") {
    const std::string masterName = requireString(req.doc, "master");
    const db::Master* master = t.bundle->lib.findMaster(masterName);
    if (master == nullptr) {
      fail(kErrBadArgument, "unknown master '" + masterName + "'");
    }
    const std::string name = requireString(req.doc, "name");
    if (t.design->findInstance(name) >= 0) {
      fail(kErrBadArgument, "instance '" + name + "' already exists");
    }
    db::Instance fresh;
    fresh.name = name;
    fresh.master = master;
    fresh.origin = {static_cast<geom::Coord>(requireInt(req.doc, "x")),
                    static_cast<geom::Coord>(requireInt(req.doc, "y"))};
    const obs::Json* orient = req.doc.find("orient");
    if (orient != nullptr) {
      if (!orient->isString()) {
        fail(kErrBadField, "field 'orient' must be a string");
      }
      fresh.orient = geom::orientFromString(orient->asString());
    }
    inst = session.addInstance(std::move(fresh));
  } else {
    inst = resolveInstance(t, req.doc);
    if (req.cmd == "move") {
      geom::Point target = t.design->instances[inst].origin;
      if (req.doc.find("dx") != nullptr || req.doc.find("dy") != nullptr) {
        const obs::Json* dx = req.doc.find("dx");
        const obs::Json* dy = req.doc.find("dy");
        target.x += dx != nullptr
                        ? static_cast<geom::Coord>(requireInt(req.doc, "dx"))
                        : 0;
        target.y += dy != nullptr
                        ? static_cast<geom::Coord>(requireInt(req.doc, "dy"))
                        : 0;
      } else {
        target = {static_cast<geom::Coord>(requireInt(req.doc, "x")),
                  static_cast<geom::Coord>(requireInt(req.doc, "y"))};
      }
      session.moveInstance(inst, target);
    } else if (req.cmd == "orient") {
      session.setOrient(
          inst, geom::orientFromString(requireString(req.doc, "orient")));
    } else {  // remove
      session.removeInstance(inst);
    }
  }

  ++t.seq;
  t.history.push_back(req.line);
  PAO_COUNTER_INC("pao.serve.mutations_total");
  const core::OracleSession::Stats& stats = session.stats();
  obs::Json result = obs::Json::object();
  result.set("seq", obs::Json(t.seq));
  result.set("inst", obs::Json(inst));
  result.set("dirtyClusters", obs::Json(stats.lastDirtyClusters));
  result.set("clusterCount", obs::Json(stats.lastClusterCount));
  return result;
}

obs::Json Service::cmdQuery(const Request& req) {
  Tenant& t = requireTenant(req);
  const db::Design& design = *t.design;
  geom::Rect region = design.dieArea;
  const obs::Json* box = req.doc.find("region");
  if (box != nullptr) {
    if (!box->isArray() || box->items().size() != 4) {
      fail(kErrBadArgument, "'region' must be [xlo, ylo, xhi, yhi]");
    }
    for (const obs::Json& c : box->items()) {
      if (!c.isInt()) fail(kErrBadArgument, "'region' must hold integers");
    }
    region = {static_cast<geom::Coord>(box->items()[0].asInt()),
              static_cast<geom::Coord>(box->items()[1].asInt()),
              static_cast<geom::Coord>(box->items()[2].asInt()),
              static_cast<geom::Coord>(box->items()[3].asInt())};
  }

  const core::OracleSession& session = *t.session;
  const std::vector<int>& chosen = session.chosenPattern();
  obs::Json instances = obs::Json::array();
  for (const int idx : session.rows().overlapping(design, region)) {
    const auto i = static_cast<std::size_t>(idx);
    const db::Instance& instance = design.instances[i];
    obs::Json j = obs::Json::object();
    j.set("inst", obs::Json(i));
    j.set("name", obs::Json(instance.name));
    j.set("pattern", obs::Json(idx < static_cast<int>(chosen.size())
                                   ? chosen[idx]
                                   : -1));
    obs::Json aps = obs::Json::array();
    const int cls = session.unique().classOf.size() > i
                        ? session.unique().classOf[i]
                        : -1;
    if (cls >= 0) {
      const std::size_t pins = session.classAccess(cls).pinAps.size();
      for (std::size_t p = 0; p < pins; ++p) {
        const auto ap = session.chosenAp(idx, static_cast<int>(p));
        if (!ap) continue;
        obs::Json a = obs::Json::object();
        a.set("pin", obs::Json(p));
        a.set("x", obs::Json(static_cast<long long>(ap->loc.x)));
        a.set("y", obs::Json(static_cast<long long>(ap->loc.y)));
        aps.push(std::move(a));
      }
    }
    j.set("aps", std::move(aps));
    instances.push(std::move(j));
  }
  obs::Json result = obs::Json::object();
  result.set("instances", std::move(instances));
  return result;
}

obs::Json Service::cmdReport(const Request& req) {
  Tenant& t = requireTenant(req);
  // The equivalence contract (tests/serve_smoke.sh): everything below must
  // be byte-identical — after normalizeForCompare and modulo the "tool"
  // key — to `pao_cli analyze` over the same post-mutation design. That is
  // why the sections come from pao/report_json.hpp and why this report
  // carries no session/cache/metrics sections (those are cumulative
  // process-wide numbers a fresh batch run cannot reproduce).
  const core::OracleResult res = t.session->snapshot();
  const core::DirtyApStats dirty = core::countDirtyAps(*t.design, res);
  const core::FailedPinStats failed = t.session->failedPins();
  obs::RunReport report("pao_serve report");
  report.section("design") = core::designSectionJson(t.bundle->tech,
                                                     t.bundle->lib,
                                                     *t.design);
  report.section("config") =
      core::analysisConfigJson("bca", cfg_.numThreads, false);
  report.section("oracle") = core::oracleSectionJson(res, dirty, failed);
  if (!res.degraded.empty()) {
    report.section("degraded") = core::degradedSectionJson(res.degraded);
  }
  obs::Json result = obs::Json::object();
  result.set("seq", obs::Json(t.seq));
  result.set("report", report.doc());
  return result;
}

obs::Json Service::cmdMetrics(const Request&) {
  obs::Json result = obs::Json::object();
  result.set("tenants", obs::Json(tenants_.size()));
  result.set("libraries", obs::Json(libraries_.size()));
  result.set("inflight", obs::Json(inflightTotal()));
  result.set("cache", core::cacheSectionJson(cache_));
  obs::Json perTenant = obs::Json::object();
  for (const auto& [name, tenant] : tenants_) {
    obs::Json j = obs::Json::object();
    j.set("instances", obs::Json(tenant->design->instances.size()));
    j.set("mutations", obs::Json(tenant->history.size()));
    j.set("seq", obs::Json(tenant->seq));
    j.set("inflight", obs::Json(inflight(name)));
    perTenant.set(name, std::move(j));
  }
  result.set("perTenant", std::move(perTenant));
#if PAO_OBS_ENABLED
  // Rolling request-latency digest, derived from the fixed-bucket
  // histogram the dispatcher already feeds — no extra bookkeeping.
  {
    const obs::Histogram& h =
        obs::Registry::instance().histogram("pao.serve.request.micros");
    obs::Json latency = obs::Json::object();
    latency.set("count", obs::Json(h.count()));
    latency.set("p50Micros", obs::Json(obs::histogramQuantile(h, 0.50)));
    latency.set("p95Micros", obs::Json(obs::histogramQuantile(h, 0.95)));
    latency.set("p99Micros", obs::Json(obs::histogramQuantile(h, 0.99)));
    result.set("latency", std::move(latency));
  }
#endif
  result.set("metrics", obs::Registry::instance().snapshot());
  return result;
}

obs::Json Service::cmdProfile(const Request&) {
  obs::Json result = obs::Json::object();
#if PAO_OBS_ENABLED
  const std::lock_guard<std::mutex> lock(profileMu_);
  if (lastBatchProfile_.empty()) {
    result.set("available", obs::Json(false));
  } else {
    result.set("available", obs::Json(true));
    result.set("profile", obs::profileSectionJson(lastBatchProfile_));
  }
#else
  result.set("available", obs::Json(false));
#endif
  return result;
}

obs::Json Service::cmdHistory(const Request& req) {
  Tenant& t = requireTenant(req);
  obs::Json mutations = obs::Json::array();
  for (const std::string& line : t.history) {
    mutations.push(obs::Json(line));
  }
  obs::Json result = obs::Json::object();
  result.set("seq", obs::Json(t.seq));
  result.set("mutations", std::move(mutations));
  return result;
}

obs::Json Service::cmdSave(const Request& req) {
  Tenant& t = requireTenant(req);
  const std::string path = requireString(req.doc, "def");
  std::ofstream out(path);
  if (!out) fail(kErrBadArgument, "cannot write " + path);
  out << lefdef::writeDef(*t.design);
  if (!out.good()) fail(kErrBadArgument, "short write to " + path);
  obs::Json result = obs::Json::object();
  result.set("path", obs::Json(path));
  result.set("instances", obs::Json(t.design->instances.size()));
  return result;
}

Service::Tenant& Service::requireTenant(const Request& req) {
  if (req.tenant.empty()) fail(kErrBadField, "missing string 'tenant'");
  const auto it = tenants_.find(req.tenant);
  if (it == tenants_.end()) {
    fail(kErrUnknownTenant, "unknown tenant '" + req.tenant + "'");
  }
  return *it->second;
}

int Service::resolveInstance(const Tenant& t, const obs::Json& doc) const {
  const obs::Json& v = requireField(doc, "inst");
  int idx = -1;
  if (v.isInt()) {
    idx = static_cast<int>(v.asInt());
  } else if (v.isString()) {
    idx = t.design->findInstance(v.asString());
    if (idx < 0) {
      fail(kErrBadArgument, "unknown instance '" + v.asString() + "'");
    }
  } else {
    fail(kErrBadField, "field 'inst' must be an index or instance name");
  }
  if (idx < 0 || idx >= static_cast<int>(t.design->instances.size())) {
    fail(kErrBadArgument,
         "instance index " + std::to_string(idx) + " out of range");
  }
  return idx;
}

}  // namespace pao::serve
