#include "util/jobs.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "obs/enabled.hpp"
#if PAO_OBS_ENABLED
#include <chrono>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#endif

namespace pao::util {

namespace {

/// Set while a thread is draining a graph — a nested run() (or parallelFor)
/// sees it and runs inline instead of spawning a second pool.
thread_local bool gInsideJobRun = false;

#if PAO_OBS_ENABLED
std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
#endif

}  // namespace

int resolveThreads(int numThreads) {
  if (numThreads >= 1) return numThreads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int numThreads) {
  if (n == 0) return;
  // A single-layer graph: n dependency-free jobs sharing one body. The
  // graph's contract subsumes the fork-join one — every index is attempted,
  // the lowest failing index's exception is rethrown, and a nested call
  // degrades to serial on the calling worker.
  JobGraph graph;
  graph.addJobRange(n, fn);
  graph.run(numThreads);
}

bool JobGraph::insideJob() { return gInsideJobRun; }

JobId JobGraph::addJob(std::function<void()> body,
                       std::span<const JobId> deps) {
  if (ran_) throw std::logic_error("JobGraph::addJob after run()");
  const JobId id = static_cast<JobId>(nodes_.size());
  Node node;
  node.body = std::move(body);
  node.depBegin = static_cast<std::uint32_t>(deps_.size());
  node.depCount = static_cast<std::uint32_t>(deps.size());
  for (JobId d : deps) {
    if (d >= id) {
      throw std::logic_error("JobGraph: dependency must be an earlier job id");
    }
    deps_.push_back(d);
  }
  nodes_.push_back(std::move(node));
  return id;
}

JobId JobGraph::addJobRange(std::size_t n,
                            std::function<void(std::size_t)> body) {
  if (ran_) throw std::logic_error("JobGraph::addJobRange after run()");
  const JobId first = static_cast<JobId>(nodes_.size());
  if (n == 0) return first;
  const std::int32_t bodyIdx = static_cast<std::int32_t>(rangeBodies_.size());
  rangeBodies_.push_back(std::move(body));
  nodes_.reserve(nodes_.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    Node node;
    node.rangeBody = bodyIdx;
    node.rangeIndex = i;
    node.depBegin = static_cast<std::uint32_t>(deps_.size());
    node.depCount = 0;
    nodes_.push_back(std::move(node));
  }
  return first;
}

bool JobGraph::tryPop(std::size_t worker, JobId& out, int& stolenFrom) {
  stolenFrom = -1;
  {
    WorkerDeque& own = *deques_[worker];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.q.empty()) {
      out = own.q.back();  // owner end: LIFO, depth-first
      own.q.pop_back();
      return true;
    }
  }
  for (std::size_t k = 1; k < numWorkers_; ++k) {
    const std::size_t victimIdx = (worker + k) % numWorkers_;
    WorkerDeque& victim = *deques_[victimIdx];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.q.empty()) {
      out = victim.q.front();  // thief end: FIFO, oldest first
      victim.q.pop_front();
      steals_.fetch_add(1, std::memory_order_relaxed);
      stolenFrom = static_cast<int>(victimIdx);
      return true;
    }
  }
  return false;
}

void JobGraph::execute(JobId id, std::size_t worker,
                       [[maybe_unused]] int stolenFrom) {
#if PAO_OBS_ENABLED
  const std::int64_t beginNs = nowNs() - profileEpochNs_;
#endif
  Node& node = nodes_[id];
  if (poisoned_[id].load(std::memory_order_acquire) != 0) {
    skipped_.fetch_add(1, std::memory_order_relaxed);
#if PAO_OBS_ENABLED
    profileLogs_[worker].push_back(
        {id, beginNs, beginNs, stolenFrom, /*skipped=*/true});
#endif
    finish(id, /*poisonSuccessors=*/true, worker);
    return;
  }
  bool failed = false;
  try {
    if (node.rangeBody >= 0) {
      rangeBodies_[static_cast<std::size_t>(node.rangeBody)](node.rangeIndex);
    } else {
      node.body();
    }
  } catch (...) {
    failed = true;
    std::lock_guard<std::mutex> lock(failMu_);
    if (!failure_ || id < failId_) {
      failId_ = id;
      failure_ = std::current_exception();
    }
  }
  if (!failed) executed_.fetch_add(1, std::memory_order_relaxed);
#if PAO_OBS_ENABLED
  profileLogs_[worker].push_back(
      {id, beginNs, nowNs() - profileEpochNs_, stolenFrom, /*skipped=*/false});
#endif
  finish(id, failed, worker);
}

void JobGraph::finish(JobId id, bool poisonSuccessors, std::size_t worker) {
  // Collect the successors this completion made ready, then admit them to
  // the finishing worker's own deque back-to-front (descending id), so the
  // owner's LIFO pop visits them in ascending id order.
  JobId readyLocal[8];
  std::size_t readyCountLocal = 0;
  std::vector<JobId> readyOverflow;
  for (std::uint32_t s = succOff_[id]; s < succOff_[id + 1]; ++s) {
    const JobId succId = succ_[s];
    if (poisonSuccessors) {
      poisoned_[succId].store(1, std::memory_order_release);
    }
    if (pending_[succId].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (readyCountLocal < 8) {
        readyLocal[readyCountLocal++] = succId;
      } else {
        readyOverflow.push_back(succId);
      }
    }
  }
  const std::size_t admitted = readyCountLocal + readyOverflow.size();
  if (admitted > 0) {
    WorkerDeque& own = *deques_[worker];
    std::lock_guard<std::mutex> lock(own.mu);
    for (std::size_t i = readyOverflow.size(); i-- > 0;) {
      own.q.push_back(readyOverflow[i]);
    }
    for (std::size_t i = readyCountLocal; i-- > 0;) {
      own.q.push_back(readyLocal[i]);
    }
  }
  bool done = false;
  {
    std::lock_guard<std::mutex> lock(idleMu_);
    readyCount_ += static_cast<std::ptrdiff_t>(admitted);
    --remaining_;
    done = (remaining_ == 0);
  }
  if (admitted > 0 || done) idleCv_.notify_all();
}

void JobGraph::workerLoop(std::size_t worker) {
  for (;;) {
    JobId id = 0;
    int stolenFrom = -1;
    if (tryPop(worker, id, stolenFrom)) {
      {
        std::lock_guard<std::mutex> lock(idleMu_);
        --readyCount_;
      }
      execute(id, worker, stolenFrom);
      continue;
    }
    std::unique_lock<std::mutex> lock(idleMu_);
    if (remaining_ == 0) return;
    if (readyCount_ <= 0) {
      idleCv_.wait(lock, [&] { return remaining_ == 0 || readyCount_ > 0; });
      if (remaining_ == 0) return;
    }
    // Ready work exists somewhere; loop back and try the deques again.
  }
}

void JobGraph::run(int numThreads) {
  if (ran_) throw std::logic_error("JobGraph::run is one-shot");
  ran_ = true;
  stats_.jobs = nodes_.size();
  if (nodes_.empty()) return;

  const std::size_t n = nodes_.size();

  // Successor CSR from the flat dependency lists.
  succOff_.assign(n + 1, 0);
  for (const Node& node : nodes_) {
    for (std::uint32_t d = 0; d < node.depCount; ++d) {
      ++succOff_[deps_[node.depBegin + d] + 1];
    }
  }
  for (std::size_t i = 1; i <= n; ++i) succOff_[i] += succOff_[i - 1];
  succ_.resize(deps_.size());
  {
    std::vector<std::uint32_t> cursor(succOff_.begin(), succOff_.end() - 1);
    for (JobId id = 0; id < n; ++id) {
      const Node& node = nodes_[id];
      for (std::uint32_t d = 0; d < node.depCount; ++d) {
        succ_[cursor[deps_[node.depBegin + d]]++] = id;
      }
    }
  }

  pending_ = std::make_unique<std::atomic<std::uint32_t>[]>(n);
  poisoned_ = std::make_unique<std::atomic<std::uint8_t>[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    pending_[i].store(nodes_[i].depCount, std::memory_order_relaxed);
    poisoned_[i].store(0, std::memory_order_relaxed);
  }

  const bool nested = gInsideJobRun;
  numWorkers_ =
      nested ? 1
             : std::min<std::size_t>(
                   static_cast<std::size_t>(resolveThreads(numThreads)), n);
  if (numWorkers_ == 0) numWorkers_ = 1;
  deques_.clear();
  for (std::size_t w = 0; w < numWorkers_; ++w) {
    deques_.push_back(std::make_unique<WorkerDeque>());
  }

#if PAO_OBS_ENABLED
  profileEpochNs_ = nowNs();
  // Epoch on the tracer's clock too, so recordProfileTrace can place job
  // spans on the same timeline as the ordinary phase spans. 0 = tracing off.
  profile_.epochUs = obs::Tracer::instance().enabled()
                         ? obs::Tracer::instance().nowUs()
                         : 0;
  profileLogs_.assign(numWorkers_, {});
  for (auto& log : profileLogs_) log.reserve(n / numWorkers_ + 8);
#endif

  // Seed the initially-ready jobs round-robin across workers, each deque
  // filled in descending id order so the owner's LIFO pop starts at its
  // lowest id. With one worker this makes the serial schedule "ascending
  // among the initially ready, depth-first after each completion".
  std::vector<JobId> ready;
  for (JobId id = 0; id < n; ++id) {
    if (nodes_[id].depCount == 0) ready.push_back(id);
  }
  for (std::size_t i = ready.size(); i-- > 0;) {
    deques_[i % numWorkers_]->q.push_back(ready[i]);
  }
  remaining_ = n;
  readyCount_ = static_cast<std::ptrdiff_t>(ready.size());

  const bool wasInside = gInsideJobRun;
  gInsideJobRun = true;
  if (numWorkers_ <= 1) {
    workerLoop(0);
  } else {
#if PAO_OBS_ENABLED
    // Name worker spans after the submitting thread's innermost open span
    // (e.g. "oracle.pipeline" -> "oracle.pipeline.worker") so trace viewers
    // group worker activity under its phase. Captured here, before workers
    // start, because the span stack is thread-local to the submitter.
    if (obs::Tracer::instance().enabled()) {
      const std::string parent = obs::Tracer::currentSpanName();
      if (!parent.empty()) workerSpanName_ = parent + ".worker";
    }
#endif
    const auto drain = [this](std::size_t worker) {
      gInsideJobRun = true;
#if PAO_OBS_ENABLED
      std::optional<obs::TraceScope> workerSpan;
      if (!workerSpanName_.empty()) {
        workerSpan.emplace(workerSpanName_, obs::Json());
      }
#endif
      workerLoop(worker);
      gInsideJobRun = false;
    };
    std::vector<std::thread> pool;
    pool.reserve(numWorkers_ - 1);
    for (std::size_t w = 1; w < numWorkers_; ++w) {
      pool.emplace_back(drain, w);
    }
    drain(0);  // the calling thread works too
    for (std::thread& t : pool) t.join();
  }
  gInsideJobRun = wasInside;

  stats_.executed = executed_.load(std::memory_order_relaxed);
  stats_.skipped = skipped_.load(std::memory_order_relaxed);
  stats_.steals = steals_.load(std::memory_order_relaxed);

#if PAO_OBS_ENABLED
  // Assemble the per-worker logs into one indexed-by-id profile. Runs after
  // the drain on the submitting thread — no worker is still writing.
  profile_.nodes.assign(n, obs::ProfileNode{});
  for (std::size_t w = 0; w < profileLogs_.size(); ++w) {
    for (const ProfileEntry& e : profileLogs_[w]) {
      obs::ProfileNode& pn = profile_.nodes[e.id];
      pn.beginNs = e.beginNs;
      pn.endNs = e.endNs;
      pn.worker = static_cast<std::int32_t>(w);
      pn.stolenFrom = e.stolenFrom;
      pn.skipped = e.skipped;
    }
  }
  profile_.depOff.resize(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    profile_.depOff[i] = nodes_[i].depBegin;
  }
  profile_.depOff[n] = static_cast<std::uint32_t>(deps_.size());
  profile_.deps = deps_;
  profile_.workers = static_cast<int>(numWorkers_);
  profile_.wallNs = nowNs() - profileEpochNs_;
  profile_.steals = stats_.steals;
  PAO_COUNTER_ADD("pao.jobs.executed",
                  static_cast<long long>(stats_.executed));
  PAO_COUNTER_ADD("pao.jobs.skipped", static_cast<long long>(stats_.skipped));
#endif

  if (failure_) std::rethrow_exception(failure_);
}

}  // namespace pao::util
