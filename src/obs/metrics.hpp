// Metrics registry — named monotonic counters, gauges and fixed-bucket
// histograms behind a process-wide registry. Design constraints:
//
//   * Hot paths pay one relaxed atomic or less: call sites resolve their
//     handle once (function-local static in the PAO_* macros) and then do a
//     single relaxed fetch_add; ScopedCount batches a loop's increments in a
//     plain thread-local integer and flushes one relaxed add on scope exit.
//   * snapshot() is deterministic under any --threads value: names are
//     emitted canonically sorted, and every metric the library registers
//     counts schedule-independent quantities (work items, not races), so
//     two runs that do the same work produce byte-identical snapshots.
//     Schedule-dependent quantities (e.g. job-graph steals) are deliberately
//     NOT registry-backed.
//   * Naming convention (enforced by the pao_lint `obs-naming` rule):
//     pao.<phase>.<metric>, dotted lowercase, e.g.
//     pao.step3.cluster_dp_runs. See DESIGN.md "Observability".
//
// With -DPAO_OBS=OFF the macros expand to nothing (arguments unevaluated);
// the registry itself still compiles so cold consumers (pao_cli's report
// writer, tests) keep working.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/enabled.hpp"
#include "obs/json.hpp"

namespace pao::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(long long v) { v_.store(v, std::memory_order_relaxed); }
  void add(long long n) { v_.fetch_add(n, std::memory_order_relaxed); }
  long long value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> v_{0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
/// an implicit overflow bucket catches everything above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<long long> bounds);

  void observe(long long v);
  const std::vector<long long>& bounds() const { return bounds_; }
  /// Per-bucket counts, bounds().size() + 1 entries (last = overflow).
  std::vector<std::uint64_t> counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  long long sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<long long> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<long long> sum_{0};
};

/// Default histogram bounds: powers of two 1..65536 — a good fit for the
/// count-shaped quantities the library observes (APs per pin, cluster
/// sizes).
std::span<const long long> defaultHistogramBounds();

/// Estimated q-quantile (q clamped to [0, 1]) of a fixed-bucket histogram
/// by linear interpolation inside the containing bucket (bucket i spans
/// (bounds[i-1], bounds[i]], bucket 0 starts at 0). `buckets` must hold
/// bounds.size() + 1 entries, the last being the overflow bucket.
///
/// Sentinels — always finite, never NaN:
///   * empty histogram (all buckets zero)         -> 0.0
///   * quantile landing in the overflow bucket    -> last finite bound
///     (the histogram cannot resolve beyond it); 0.0 when `bounds` is empty
///   * single sample interpolates like any other count, so q = 0 returns
///     its bucket's lower edge and q = 1 its upper bound
double histogramQuantile(std::span<const long long> bounds,
                         std::span<const std::uint64_t> buckets, double q);
/// Convenience overload over a live registry histogram.
double histogramQuantile(const Histogram& h, double q);

/// Thread-local shard for a loop that increments one counter many times:
/// accumulates in a plain integer, flushes one relaxed add on scope exit.
class ScopedCount {
 public:
  explicit ScopedCount(Counter& c) : c_(&c) {}
  ScopedCount(const ScopedCount&) = delete;
  ScopedCount& operator=(const ScopedCount&) = delete;
  ~ScopedCount() {
    if (n_ != 0) c_->add(n_);
  }
  void inc(std::uint64_t n = 1) { n_ += n; }

 private:
  Counter* c_;
  std::uint64_t n_ = 0;
};

class Registry {
 public:
  /// The process-wide registry (leaked singleton: safe to touch from any
  /// static-destruction context).
  static Registry& instance();

  /// Find-or-create. Returned references are stable for the process
  /// lifetime (node-based storage), so call sites may cache them.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);  ///< defaultHistogramBounds()
  Histogram& histogram(std::string_view name,
                       std::span<const long long> bounds);

  /// Canonically sorted (by name, per kind) snapshot:
  ///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// Byte-identical across runs doing the same work at any thread count.
  Json snapshot() const;

  /// Zeroes every value; names stay registered. For tests and per-run
  /// isolation inside one process.
  void reset();

 private:
  Registry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace pao::obs

// --- call-site macros -------------------------------------------------------
// Each expansion resolves its handle once (thread-safe function-local
// static), then pays one relaxed atomic per hit. Names must be string
// literals following pao.<phase>.<metric> (pao_lint `obs-naming`).
#if PAO_OBS_ENABLED

#define PAO_COUNTER_ADD(name, n)                            \
  do {                                                      \
    static ::pao::obs::Counter& pao_obs_counter_ =          \
        ::pao::obs::Registry::instance().counter(name);     \
    pao_obs_counter_.add(static_cast<std::uint64_t>(n));    \
  } while (0)

#define PAO_COUNTER_INC(name) PAO_COUNTER_ADD(name, 1)

#define PAO_GAUGE_SET(name, v)                              \
  do {                                                      \
    static ::pao::obs::Gauge& pao_obs_gauge_ =              \
        ::pao::obs::Registry::instance().gauge(name);       \
    pao_obs_gauge_.set(static_cast<long long>(v));          \
  } while (0)

#define PAO_HISTOGRAM_OBSERVE(name, v)                      \
  do {                                                      \
    static ::pao::obs::Histogram& pao_obs_hist_ =           \
        ::pao::obs::Registry::instance().histogram(name);   \
    pao_obs_hist_.observe(static_cast<long long>(v));       \
  } while (0)

#else  // !PAO_OBS_ENABLED — arguments are discarded unevaluated.

#define PAO_COUNTER_ADD(name, n) \
  do {                           \
  } while (0)
#define PAO_COUNTER_INC(name) \
  do {                        \
  } while (0)
#define PAO_GAUGE_SET(name, v) \
  do {                         \
  } while (0)
#define PAO_HISTOGRAM_OBSERVE(name, v) \
  do {                                 \
  } while (0)

#endif  // PAO_OBS_ENABLED
