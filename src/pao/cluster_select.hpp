// Step 3 — cluster-based access pattern selection (paper Sec. III-C).
//
// Instances are grouped by row; every maximal run of abutting instances (no
// empty site between neighbors) forms a cluster. Within a cluster the same
// DP as Step 2 runs with instances in left-to-right order as the groups and
// each unique instance's access patterns as the group's vertices. Edge costs
// DRC-check only the up-vias of the *boundary* access points of the two
// facing patterns (the rightmost pin of the left instance against the
// leftmost pin of the right instance), and results are memoized by
// (class, pattern, class, pattern, relative offset) so repeated abutments of
// the same unique-instance pair cost one check.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "db/unique_inst.hpp"
#include "drc/engine.hpp"
#include "pao/access_point.hpp"

namespace pao::core {

struct ClusterSelectConfig {
  long long drcCost = 32768;
  /// Check every pin pair across the boundary instead of only the two facing
  /// boundary pins (ablation; the paper checks boundary pins only).
  bool boundaryPinsOnly = true;
  /// Wall-clock budget in seconds for a selection pass (0 = unlimited).
  /// armBudget() starts the clock; once it expires — latched, so one slow
  /// cluster degrades every later one in the pass — each remaining cluster
  /// commits its instances' cheapest standalone patterns (best-so-far,
  /// pinned decisions kept) instead of running the DP. The caller reads
  /// budgetExpired() to report the degradation.
  double budgetSeconds = 0;
};

/// Per-unique-instance access data produced by Steps 1-2, relative to the
/// instance origin: a member instance places an access point at
/// ap.loc + its origin (the paper's translation-invariance argument, Sec.
/// II-A, is what makes one class's access valid for every member).
struct ClassAccess {
  std::vector<std::vector<AccessPoint>> pinAps;  ///< per signal pin
  std::vector<AccessPattern> patterns;
  std::vector<int> pinOrder;  ///< Step-2 ordered signal-pin positions
};

/// Maximal runs of row-abutting instances (instance indices, left to right).
/// A multi-height instance joins the cluster of every row its bbox covers.
/// Deterministic in content and order for a given design, regardless of
/// instance insertion order (rows bottom-up, runs left to right).
std::vector<std::vector<int>> buildClusters(const db::Design& design);

/// Per-cluster scheduling dependencies for the job graph: deps[c] lists, in
/// ascending order, the earlier clusters that must decide before cluster c
/// may run — for each instance of c, the latest earlier cluster containing
/// that instance (multi-height instances chain their clusters; disjoint
/// clusters have no deps). Replaying these edges reproduces the serial
/// pinning order exactly, without the barrier the old wave schedule put
/// between instance-disjoint clusters.
std::vector<std::vector<std::size_t>> clusterDeps(
    const std::vector<std::vector<int>>& clusters);

class ClusterSelector {
 public:
  ClusterSelector(const db::Design& design, const db::UniqueInstances& unique,
                  const std::vector<ClassAccess>& classes,
                  ClusterSelectConfig cfg = {});

  /// Runs the DP of one cluster, writing only its own instances' entries of
  /// `chosen` (safe to run concurrently for instance-disjoint clusters).
  /// Entries already >= 0 are pinned: the DP may only keep them. This is the
  /// unit OracleSession schedules for every cluster; `cluster` need not
  /// come from this selector's own clustering.
  void selectCluster(const std::vector<int>& cluster,
                     std::vector<int>& chosen);

  /// Clusters found (instance indices, left to right) — exposed for tests.
  const std::vector<std::vector<int>>& clusters() const { return clusters_; }
  /// Pair checks performed, counted deterministically: each unique memo key
  /// contributes its via-clean probe count exactly once — when two workers
  /// race to compute the same uncached pair, only the one whose result is
  /// committed to the cache adds its probes. The total therefore equals the
  /// serial count at any thread count (schedule-invariant; mirrored to the
  /// "pao.step3.pair_checks" registry counter and the session snapshot).
  std::size_t numPairChecks() const { return numPairChecks_.load(); }
  /// selectCluster invocations that actually ran a DP (clusters with at
  /// least one pattern-bearing instance). Cumulative.
  std::size_t numDpRuns() const { return numDpRuns_.load(); }
  /// Summed per-thread CPU seconds spent inside cluster DPs (the Step-3
  /// cpu-clock analog of OracleResult::step3CpuSeconds). Cumulative.
  double dpCpuSeconds() const {
    return static_cast<double>(dpCpuNanos_.load()) * 1e-9;
  }

  /// (Re)starts the cfg.budgetSeconds clock and clears the expired latch.
  /// OracleSession arms before the initial build and re-arms before each
  /// dirty-cluster recomputation. With budgetSeconds == 0 only the
  /// "step3.deadline" fault point can expire the pass.
  void armBudget();
  /// True once the current pass's budget expired (stays true until the next
  /// armBudget()).
  bool budgetExpired() const {
    return expired_.load(std::memory_order_relaxed);
  }
  /// Clusters that took the best-so-far fallback since the last armBudget().
  std::size_t expiredClusters() const {
    return expiredClusters_.load(std::memory_order_relaxed);
  }

 private:
  /// Checks (and latches) budget expiry; also consults the
  /// "step3.deadline" fault point so tests can force expiry
  /// deterministically.
  bool deadlineExpired();
  /// Budget-expiry path of selectCluster: commits each still-undecided
  /// instance's cheapest standalone pattern; pinned decisions are kept.
  void fallbackSelect(const std::vector<int>& cluster,
                      std::vector<int>& chosen);
  /// DRC compatibility of two neighboring instances' patterns (memoized).
  /// Checks the facing boundary access points' up-vias against each other
  /// AND against the neighbor instance's fixed shapes near the shared edge,
  /// so a pattern whose boundary via clears the neighbor's vias but clips a
  /// neighbor pin bar is still rejected.
  bool patternsCompatible(int instA, int patA, int instB, int patB);
  /// Fixed shapes (pins/obstructions) of `inst` within `halo` of the
  /// vertical line x = `boundaryX`, with per-pin net ids (see pairNet).
  /// `side` is 0 for the instance left of the boundary, 1 for the right one.
  std::vector<drc::Shape> edgeShapes(int inst, int side, geom::Coord boundaryX,
                                     geom::Coord halo) const;
  /// Boundary access points of `pattern` facing the boundary from `side`
  /// (0 = left instance, its last ordered pin; 1 = right instance, its
  /// first), placed at the member instance; empty when the pattern lacks
  /// one.
  struct PlacedAp {
    const AccessPoint* ap = nullptr;
    geom::Point loc;
    int net = 0;
  };
  std::vector<PlacedAp> boundaryAps(int inst, int pat, int side) const;

  const db::Design* design_;
  const db::UniqueInstances* unique_;
  const std::vector<ClassAccess>* classes_;
  ClusterSelectConfig cfg_;
  drc::DrcEngine pairEngine_;  ///< context-free engine for via-pair checks
  std::vector<std::vector<int>> clusters_;
  /// Memoized pair compatibility, shared across concurrently-running
  /// clusters; guarded by cacheMu_ (the cached function is pure, so the
  /// access order cannot change any result).
  std::mutex cacheMu_;
  std::map<std::tuple<int, int, int, int, geom::Coord, geom::Coord>, bool>
      pairCache_;
  std::atomic<std::size_t> numPairChecks_{0};
  std::atomic<std::size_t> numDpRuns_{0};
  std::atomic<long long> dpCpuNanos_{0};
  /// Budget state. deadline_/budgetArmed_ are written by armBudget() before
  /// the job graph runs (its start establishes the happens-before);
  /// expired_ latches concurrently.
  std::chrono::steady_clock::time_point deadline_{};
  bool budgetArmed_ = false;
  std::atomic<bool> expired_{false};
  std::atomic<std::size_t> expiredClusters_{0};
};

}  // namespace pao::core
