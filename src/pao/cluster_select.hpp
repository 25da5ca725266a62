// Step 3 — cluster-based access pattern selection (paper Sec. III-C).
//
// Instances are grouped by row; every maximal run of abutting instances (no
// empty site between neighbors) forms a cluster. Within a cluster the same
// DP as Step 2 runs with instances in left-to-right order as the groups and
// each unique instance's access patterns as the group's vertices. Edge costs
// DRC-check only the up-vias of the *boundary* access points of the two
// facing patterns (the rightmost pin of the left instance against the
// leftmost pin of the right instance). The verdicts live in a table with
// one slot per abutment key (class, class, relative offset): every cluster
// with that abutment shares the slot's full pattern x pattern matrix, filled
// once by the first DP that needs it and read-only from then on.
#pragma once

#include <atomic>
#include <chrono>
#include <compare>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>  // std::once_flag, std::call_once
#include <vector>

#include "db/row_index.hpp"
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

/// Appends the maximal runs of abutting instances of `row` to `out`, left to
/// right: a run ends where the next instance's origin x lies beyond the
/// previous instance's right edge.
void splitRow(const db::Design& design, const db::RowIndex::Row& row,
              std::vector<std::vector<int>>& out);

/// Maximal runs of row-abutting instances (instance indices, left to right)
/// over every row of a db::RowIndex of `design`, bottom-up: splitRow of
/// each row. A multi-height instance joins the cluster of every row its
/// bbox covers. Instances at the same origin x keep index order, so the
/// result is a function of the design alone.
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

  /// Registers a verdict slot for every abutment key (classes and relative
  /// offset of consecutive instances) of `clusters` not seen before. Call it
  /// between graph runs, before selectCluster runs on any of `clusters`.
  void addPairKeys(const std::vector<std::vector<int>>& clusters);
  /// Runs the DP of one cluster, writing only its own instances' entries of
  /// `chosen` (safe to run concurrently for instance-disjoint clusters).
  /// Entries already >= 0 are pinned: the DP may only keep them. This is the
  /// unit OracleSession schedules for every cluster. The cluster's keys
  /// must have been added (std::out_of_range otherwise).
  void selectCluster(const std::vector<int>& cluster,
                     std::vector<int>& chosen);

  /// Via-clean probes run by the filled verdict slots: each key's full
  /// pattern x pattern matrix, counted once, so the total is the same at any
  /// thread count. Read it between graph runs.
  std::size_t numPairChecks() const;
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
  /// An abutment: the classes of the left and right instance and the right
  /// origin minus the left one. The verdicts depend on nothing else.
  struct PairKey {
    int clsA, clsB;
    geom::Coord dx, dy;
    auto operator<=>(const PairKey&) const = default;
  };
  /// DRC compatibility of every pattern pair of one abutment key, row-major
  /// by the left pattern. Filled exactly once, under `filled`.
  struct PairSlot {
    std::once_flag filled;
    std::vector<char> clean;
    std::size_t checks = 0;  ///< via-clean probes the fill ran
  };
  PairKey pairKey(int instA, int instB) const;
  /// Fills `slot` from the abutting instances instA | instB: checks the
  /// facing boundary access points' up-vias of every pattern pair against
  /// each other AND against the neighbor instance's fixed shapes near the
  /// shared edge, so a pattern whose boundary via clears the neighbor's vias
  /// but clips a neighbor pin bar is still rejected.
  void fillSlot(PairSlot& slot, int instA, int instB) const;
  /// Fixed shapes (pins/obstructions) of `inst` within halo_ of the
  /// vertical line x = `boundaryX`, with per-pin net ids (see pairNet).
  /// `side` is 0 for the instance left of the boundary, 1 for the right one.
  std::vector<drc::Shape> edgeShapes(int inst, int side,
                                     geom::Coord boundaryX) const;
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
  geom::Coord halo_ = 0;  ///< reach of edgeShapes around the shared edge
  /// Verdict table: keys are added only between graph runs, so the index is
  /// read-only while DPs run; a deque never moves its elements, so slots
  /// stay put, and numPairChecks() walks them without chasing map nodes.
  std::map<PairKey, std::size_t> pairIndex_;
  std::deque<PairSlot> pairSlots_;
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
