// Service — the transport-independent heart of pao_serve: a registry of
// resident tenants (one loaded design + incremental OracleSession each),
// a per-tenant admission budget, and a request dispatcher. The epoll
// transport (serve/server.hpp) feeds it parsed Request lines; in-process
// tests and the deterministic replay harness call handleLine directly.
//
// Tenancy model:
//   * Each `load` parses a LEF/DEF pair into a resident tenant. Parsed
//     libraries are interned by AccessCache::fingerprint and shared across
//     tenants for the daemon lifetime, so two tenants loading the same LEF
//     share db::Master pointers — which is what makes the server-wide
//     AccessCache genuinely cross-tenant (its keys are signature tuples
//     containing the Master pointer).
//   * The shared cache means tenant B's initial analysis of a design whose
//     cell signatures tenant A already computed is pure lookups.
//
// Concurrency contract (what makes the PR 3 determinism guarantee extend
// to the service):
//   * Requests for the same tenant are always dispatched in arrival order.
//     The transport owns the batching rule (Server::drainQueue): a batch
//     holds at most one request per tenant, and a request that runs alone
//     (runsAlone: malformed, tenant-less or serial) forms a batch of its
//     own. dispatchBatch rejects a batch that breaks the rule and runs the
//     requests of a valid one as independent util::JobGraph nodes, so
//     distinct tenants overlap.
//   * Concurrent nodes touch no shared state except the internally-
//     synchronized AccessCache and obs registry. Cache hit/miss *counters*
//     are therefore schedule-dependent; chosen patterns, query answers and
//     report sections are not.
//   * With ServiceConfig::deterministic, dispatchBatch degrades to strict
//     arrival order on the calling thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/design.hpp"
#include "db/lib.hpp"
#include "db/tech.hpp"
#include "obs/enabled.hpp"
#include "pao/access_cache.hpp"
#include "pao/session.hpp"
#include "serve/protocol.hpp"

#if PAO_OBS_ENABLED
#include "obs/profile.hpp"
#endif

namespace pao::serve {

struct ServiceConfig {
  /// Worker threads of a load's DEF ingest and of each session (0 = auto,
  /// as OracleConfig).
  int numThreads = 1;
  /// Max in-flight (admitted, unanswered) requests per tenant; >= 1.
  int tenantBudget = 4;
  std::size_t maxTenants = 64;
  /// Process every request in arrival order on the calling thread.
  bool deterministic = false;
  /// Requests slower than this are counted (pao.serve.slow_requests) and
  /// logged to stderr, rate-limited to one line per second. <= 0 disables.
  long long slowRequestMicros = 250000;
};

class Service {
 public:
  explicit Service(ServiceConfig cfg);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // --- admission control ----------------------------------------------
  /// Global commands are always admitted (uncounted). Tenant commands
  /// take one budget slot; false means the budget is exhausted — the
  /// socket transport stalls the connection, in-process callers get a
  /// SRV006 response from handleLine. Every successful tryAdmit must be
  /// paired with exactly one release (even when the requesting client
  /// died before its response could be written).
  bool tryAdmit(const Request& req);
  void release(const Request& req);
  std::size_t inflight(const std::string& tenant) const;
  std::size_t inflightTotal() const;

  // --- dispatch --------------------------------------------------------
  /// Admission + dispatch + release in one call (the in-process path).
  std::string handleLine(const std::string& line);
  /// Dispatch only — the caller did the admission bookkeeping.
  std::string dispatch(const Request& req);
  /// Dispatches a batch holding at most one request per tenant and no
  /// request that runs alone (the transport guarantees both), concurrently
  /// unless configured deterministic. Returns one response per request,
  /// aligned. Throws std::invalid_argument, before dispatching anything,
  /// for a batch of two or more that breaks the rule.
  std::vector<std::string> dispatchBatch(const std::vector<Request>& batch);

  bool shutdownRequested() const { return shutdown_; }
  std::size_t tenantCount() const { return tenants_.size(); }
  const core::AccessCache& cache() const { return cache_; }

 private:
  /// A parsed LEF, interned for the daemon lifetime (libraries are small
  /// next to designs, and cache entries hold pointers into them).
  struct LibraryBundle {
    db::Tech tech;
    db::Library lib;
  };

  struct Tenant {
    LibraryBundle* bundle = nullptr;
    std::unique_ptr<db::Design> design;
    std::unique_ptr<core::OracleSession> session;
    /// Raw request lines of applied mutations, in apply order — the
    /// replay script a serial client can feed back to reproduce this
    /// tenant's state exactly (soak-test determinism check).
    std::vector<std::string> history;
    std::uint64_t seq = 0;  ///< bumped once per applied mutation
  };

  obs::Json dispatchCommand(const Request& req);
  obs::Json cmdPing(const Request& req);
  obs::Json cmdLoad(const Request& req);
  obs::Json cmdUnload(const Request& req);
  obs::Json cmdMutate(const Request& req);
  obs::Json cmdQuery(const Request& req);
  obs::Json cmdReport(const Request& req);
  obs::Json cmdMetrics(const Request& req);
  obs::Json cmdProfile(const Request& req);
  obs::Json cmdHistory(const Request& req);
  obs::Json cmdSave(const Request& req);

  /// Bumps pao.serve.slow_requests and (rate-limited) logs to stderr when
  /// `micros` exceeds cfg_.slowRequestMicros.
  void maybeLogSlow(const Request& req, std::uint64_t requestId,
                    double micros);

  Tenant& requireTenant(const Request& req);
  /// Resolves "inst" (integer index or instance name) in `t`'s design.
  int resolveInstance(const Tenant& t, const obs::Json& doc) const;

  ServiceConfig cfg_;
  core::AccessCache cache_;  ///< shared across all tenants
  /// Interned libraries, keyed by AccessCache::fingerprint(tech, lib).
  std::map<std::string, std::unique_ptr<LibraryBundle>> libraries_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  /// Admitted-but-unanswered request count per tenant. Guarded by mu_:
  /// tryAdmit/release are called from transport and test threads.
  mutable std::mutex mu_;
  std::map<std::string, int> inflight_;
  std::atomic<bool> shutdown_{false};
  /// Service-wide monotonic request id: assigned at dispatch, threaded
  /// through the request's trace span, error responses and the slow log.
  std::atomic<std::uint64_t> nextRequestId_{1};
  /// Last slow-request stderr line's timestamp (steady ns); CAS-guarded
  /// rate limit of one line per second.
  std::atomic<std::int64_t> lastSlowLogNs_{0};
#if PAO_OBS_ENABLED
  /// Job-graph profile of the last concurrent dispatchBatch (the `profile`
  /// command's answer). Guarded by profileMu_: batches from distinct
  /// connections may complete concurrently.
  mutable std::mutex profileMu_;
  obs::GraphProfile lastBatchProfile_;
#endif
};

}  // namespace pao::serve
