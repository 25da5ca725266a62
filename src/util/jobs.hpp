// Deterministic job-graph executor (ROADMAP item 2): the replacement for
// the fork-join barrier model. Callers build a DAG of jobs — each job is a
// body plus the ids of earlier jobs it depends on — then run() drains it
// over a bounded worker pool with per-worker deques and work stealing.
//
// The scheduling contract, chosen so every caller stays byte-deterministic
// at any thread count (the repo's moat — see DESIGN.md "Job graph & memory
// layout"):
//
//   * Result commitment is the caller's: job bodies write into pre-sized
//     slots (or per-job state) identified by data, never by schedule. The
//     graph itself never reorders or merges results.
//   * Dependencies reference earlier ids only (deps < id), so graphs are
//     acyclic by construction and a ready job always exists.
//   * A failing job's exception is recorded by job id; jobs downstream of a
//     failure are poisoned and skipped (the poisoned set is the transitive
//     closure of failures — a pure graph property, independent of
//     schedule). After the drain, the exception of the LOWEST failing id is
//     rethrown. Independent jobs (no path from a failure) all still run —
//     for a single-layer graph this is exactly parallelFor's "every index
//     is attempted" rule.
//   * Serial order is depth-first: with one worker, jobs run lowest-id
//     first among the initially ready, and a completed job's newly-ready
//     dependents run before anything older (owner LIFO). That makes the
//     one-worker schedule a deterministic DFS — Step-3 work overlaps
//     Steps 1-2 even serially, which is what bench_pipeline measures.
//   * Nested run() (a job body building and running its own graph, or
//     calling parallelFor) degrades to serial on the calling worker rather
//     than spawning pools-squared threads.
//
// Scheduling shape: per-worker deques in the Chase-Lev style — the owner
// pushes and pops at the back (LIFO, depth-first), thieves take from the
// front (FIFO, oldest first). The deques here are mutex-guarded rather
// than lock-free: every queue operation is adjacent to a std::function
// call that dwarfs it, and the lock keeps the executor trivially clean
// under TSan. Executed/skipped counts are schedule-invariant and feed the
// registry counters pao.jobs.executed / pao.jobs.skipped; the steal count
// is not schedule-invariant (report-only — never registered).
//
// Profiling (PAO_OBS builds only): every node's begin/end timestamps,
// executing worker and steal provenance are appended to per-worker logs —
// each worker writes only its own vector, so the hot path takes no lock —
// and assembled into an obs::GraphProfile after the drain (profile()).
// obs/profile.hpp turns that into critical-path / headroom / utilization
// analysis. With PAO_OBS=OFF the capture, the member and the accessor
// compile out entirely (the ci.sh nm gate checks no obs symbol survives).
//
// parallelFor (below) is a thin wrapper: one addJobRange over a
// dependency-free graph. It keeps the fork-join contract callers rely on:
//
//   * Result ordering is the caller's: task i writes into slot i of a
//     pre-sized output, so the result sequence is independent of the
//     schedule.
//   * Every index is attempted even after a failure, and the exception of
//     the LOWEST failing index is rethrown — what a caller observes serially
//     when each task's failure is recorded and the first one reported.
//   * Nested calls degrade to serial on the calling worker instead of
//     spawning threads-squared workers, so library layers may parallelize
//     independently.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/enabled.hpp"
#if PAO_OBS_ENABLED
#include "obs/profile.hpp"
#endif

namespace pao::util {

using JobId = std::uint32_t;

/// Worker count a request resolves to: n >= 1 is taken as-is; n <= 0 means
/// std::thread::hardware_concurrency (at least 1).
int resolveThreads(int numThreads);

/// Invokes fn(i) for every i in [0, n) across up to resolveThreads(numThreads)
/// workers (the calling thread is one of them). Tasks must be independent;
/// scheduling is dynamic (work stealing) so uneven task costs balance. See
/// the header comment for the determinism contract.
void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int numThreads);

class JobGraph {
 public:
  struct Stats {
    std::size_t jobs = 0;      ///< nodes in the graph
    std::size_t executed = 0;  ///< bodies that ran (schedule-invariant)
    std::size_t skipped = 0;   ///< poisoned by an upstream failure (invariant)
    std::size_t steals = 0;    ///< cross-deque pops (NOT schedule-invariant)
  };

  JobGraph() = default;
  JobGraph(const JobGraph&) = delete;
  JobGraph& operator=(const JobGraph&) = delete;

  /// Adds one job. `deps` must all be ids returned earlier from this graph
  /// (deps < the new id); violating that throws std::logic_error. Returns
  /// the new job's id.
  JobId addJob(std::function<void()> body, std::span<const JobId> deps = {});

  /// Adds `n` dependency-free jobs sharing one body, invoked as body(i) for
  /// i in [0, n); their ids are contiguous starting at the returned id.
  /// This is the parallelFor shape: one std::function for the whole range
  /// instead of one per index.
  JobId addJobRange(std::size_t n, std::function<void(std::size_t)> body);

  /// Drains the graph over up to resolveThreads(numThreads) workers (the
  /// calling thread is one of them; capped at the job count). One-shot:
  /// running a graph twice throws std::logic_error. Rethrows the lowest
  /// failing job id's exception after the drain completes.
  void run(int numThreads);

  /// Valid after run(). See Stats for which fields are schedule-invariant.
  const Stats& stats() const { return stats_; }

#if PAO_OBS_ENABLED
  /// Valid after run(): per-node timestamps/worker/steal provenance plus
  /// the dependency CSR, ready for obs::analyzeProfile. Timestamps are
  /// nanoseconds relative to the run() epoch.
  const obs::GraphProfile& profile() const { return profile_; }
#endif

  std::size_t size() const { return nodes_.size(); }

  /// True while the calling thread is inside a job body (or a parallelFor
  /// task). Nested run() calls degrade to serial; see header comment.
  static bool insideJob();

 private:
  struct Node {
    std::function<void()> body;        // empty for range members
    std::int32_t rangeBody = -1;       // index into rangeBodies_
    std::size_t rangeIndex = 0;
    std::uint32_t depBegin = 0;
    std::uint32_t depCount = 0;
  };

  struct WorkerDeque {
    std::mutex mu;
    std::deque<JobId> q;
  };

  void execute(JobId id, std::size_t worker, int stolenFrom);
  void finish(JobId id, bool poisonSuccessors, std::size_t worker);
  void workerLoop(std::size_t worker);
  /// Pops a job for `worker`: own deque first (LIFO back), then steals
  /// round-robin (FIFO front). `stolenFrom` is the victim's worker index,
  /// or -1 for an own pop.
  bool tryPop(std::size_t worker, JobId& out, int& stolenFrom);

  std::vector<Node> nodes_;
  std::vector<std::function<void(std::size_t)>> rangeBodies_;
  std::vector<JobId> deps_;  // flat dep lists, indexed by Node::depBegin

  // Built by run(): successor CSR, pending-dep counters, poison flags.
  // pending/poisoned are touched concurrently by finish() on different
  // workers, hence atomic.
  std::vector<std::uint32_t> succOff_;
  std::vector<JobId> succ_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> pending_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> poisoned_;

  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  std::mutex idleMu_;
  std::condition_variable idleCv_;
  /// Signed: a thief may pop and finish a job between the moment finish()
  /// pushes it and the moment finish() adds it to this counter, driving the
  /// count transiently negative; the books balance once the admitting
  /// finish() runs. Guarded by idleMu_.
  std::ptrdiff_t readyCount_ = 0;
  std::size_t remaining_ = 0;  // guarded by idleMu_
  std::size_t numWorkers_ = 1;
  // Captured on the submitting thread before workers start (the trace span
  // stack is thread-local); empty when tracing is off or no span is open.
  std::string workerSpanName_;

  std::mutex failMu_;
  JobId failId_ = 0;
  std::exception_ptr failure_;

  std::atomic<std::size_t> executed_{0};
  std::atomic<std::size_t> skipped_{0};
  std::atomic<std::size_t> steals_{0};
  Stats stats_;
  bool ran_ = false;

#if PAO_OBS_ENABLED
  // Hot-path profile capture: each worker appends to its own log, so no
  // lock or atomic is needed beyond what the scheduler already takes.
  struct ProfileEntry {
    JobId id;
    std::int64_t beginNs;
    std::int64_t endNs;
    std::int32_t stolenFrom;
    bool skipped;
  };
  std::vector<std::vector<ProfileEntry>> profileLogs_;
  std::int64_t profileEpochNs_ = 0;
  obs::GraphProfile profile_;
#endif
};

}  // namespace pao::util
