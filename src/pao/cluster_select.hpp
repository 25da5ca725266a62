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
// with that abutment shares the slot's pattern x pattern matrix, whose
// entries are probed on first demand: the DP asks only for the verdicts
// that can change its answer, so most entries are never probed.
#pragma once

#include <atomic>
#include <chrono>
#include <compare>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>  // std::once_flag, std::call_once
#include <vector>

#include "db/row_index.hpp"
#include "db/unique_inst.hpp"
#include "drc/engine.hpp"
#include "pao/access_point.hpp"
#include "util/arena.hpp"

namespace pao::core {

struct ClusterSelectConfig {
  /// Edge-cost penalty of a dirty boundary pair; >= 0, as the DP's bound
  /// needs (the ClusterSelector constructor throws std::invalid_argument).
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

/// Per-cluster scheduling dependencies for the job graph: deps[c] lists, in
/// ascending order, the earlier clusters that must decide before cluster c
/// may run — for each instance of c, the latest earlier cluster containing
/// that instance (multi-height instances chain their clusters; disjoint
/// clusters have no deps). Replaying these edges reproduces the serial
/// pinning order exactly, without the barrier the old wave schedule put
/// between instance-disjoint clusters.
std::vector<std::vector<std::size_t>> clusterDeps(
    const std::vector<std::vector<int>>& clusters);

/// What one selectCluster call did, returned to its caller instead of
/// bumped into shared state: the session writes each cluster's tally into
/// its own slot and merges the slots once per pass.
struct ClusterTally {
  std::size_t activeSize = 0;  ///< pattern-bearing instances the DP saw
  double cpuSeconds = 0;       ///< thread-CPU time inside the DP
  bool ranDp = false;          ///< the DP ran (not skipped, no fallback)
  bool fellBack = false;       ///< budget expired: best-so-far committed
  /// Via-clean probes behind the verdicts this DP published: each entry is
  /// counted once, so a pass's sum is the same at any thread count.
  std::size_t pairChecks = 0;
};

class ClusterSelector {
 public:
  /// Throws std::invalid_argument when cfg.drcCost is negative.
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
  /// must have been added (std::out_of_range otherwise). Touches no shared
  /// tally: what it did comes back as the ClusterTally. Chooses exactly what
  /// a DP over every verdict would (the minimum, ties to the lowest index).
  ClusterTally selectCluster(const std::vector<int>& cluster,
                             std::vector<int>& chosen);

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
  /// Verdicts of the pattern pairs of one abutment key, row-major by the
  /// left pattern: each entry is unknown until a DP first needs it, then
  /// probed once and published with one compare-and-swap. `sized` guards
  /// only the allocation, which needs the classes' Step-2 patterns.
  enum Verdict : std::uint8_t { kUnknown, kClean, kDirty };
  struct PairSlot {
    std::once_flag sized;
    std::unique_ptr<std::atomic<std::uint8_t>[]> verdict;
  };
  PairKey pairKey(int instA, int instB) const;
  /// True when patterns p | q of the abutting instances instA | instB are
  /// compatible: checks the facing boundary access points' up-vias against
  /// each other AND against the neighbor instance's fixed shapes near the
  /// shared edge, so a pattern whose boundary via clears the neighbor's vias
  /// but clips a neighbor pin bar is still rejected. `extra` holds both
  /// instances' edgeShapes (restored on return); adds its probes to `checks`.
  bool probePair(int instA, int instB, int p, int q,
                 util::ArenaVector<drc::Shape>& extra,
                 std::size_t& checks) const;
  /// Fixed shapes (pins/obstructions) of `inst` within halo_ of the
  /// vertical line x = `boundaryX`, with per-pin net ids (see pairNet).
  /// `side` is 0 for the instance left of the boundary, 1 for the right one.
  /// Appended to `out`.
  void edgeShapes(int inst, int side, geom::Coord boundaryX,
                  util::ArenaVector<drc::Shape>& out) const;
  /// Boundary access points of `pattern` facing the boundary from `side`
  /// (0 = left instance, its last ordered pin; 1 = right instance, its
  /// first), placed at the member instance, into `out` (cleared first);
  /// empty when the pattern lacks one.
  struct PlacedAp {
    const AccessPoint* ap = nullptr;
    geom::Point loc;
    int net = 0;
  };
  void boundaryAps(int inst, int pat, int side,
                   util::ArenaVector<PlacedAp>& out) const;

  const db::Design* design_;
  const db::UniqueInstances* unique_;
  const std::vector<ClassAccess>* classes_;
  ClusterSelectConfig cfg_;
  drc::DrcEngine pairEngine_;  ///< context-free engine for via-pair checks
  geom::Coord halo_ = 0;  ///< reach of edgeShapes around the shared edge
  /// Verdict table: keys are added only between graph runs, so the index is
  /// read-only while DPs run; a deque never moves its elements, so slots
  /// stay put.
  std::map<PairKey, std::size_t> pairIndex_;
  std::deque<PairSlot> pairSlots_;
  /// Budget state. deadline_/budgetArmed_ are written by armBudget() before
  /// the job graph runs (its start establishes the happens-before);
  /// expired_ latches concurrently.
  std::chrono::steady_clock::time_point deadline_{};
  bool budgetArmed_ = false;
  std::atomic<bool> expired_{false};
};

}  // namespace pao::core
