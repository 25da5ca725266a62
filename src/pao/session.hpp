// OracleSession — the incremental, long-lived form of the pin access
// oracle. Where PinAccessOracle::run() answers one batch query, a session
// holds the design plus the full Steps 1-3 state (unique-instance classes,
// per-class access, cluster structure, chosen patterns) and keeps it
// consistent under placement mutations, recomputing only what a mutation
// invalidates:
//   * Steps 1-2 are keyed by unique-instance signature: a mutation that
//     lands an instance in an already-seen class costs a lookup; a new
//     signature costs one per-class analysis (added to the AccessCache when
//     one is configured, so the work survives the session too). A class's
//     Steps 1-2 are one unit of work on every path and in every mode: one
//     job-graph node per class in the initial build, the same call when a
//     mutation creates a class.
//   * Unique-instance class membership is maintained incrementally
//     (db::UniqueInstanceIndex) — class indices are stable, so per-class
//     results and the Step-3 pair-verdict table stay valid for the session
//     lifetime.
//   * Placement rows are a db::RowIndex kept current in O(row length); a
//     mutation re-splits only the rows it touched into clusters.
//   * Step 3 re-runs the cluster DP only for dirty clusters: runs of a
//     re-split row that are not among that row's old runs, clusters
//     containing a touched instance, and — transitively, in cluster order —
//     clusters sharing a (multi-height) instance with an earlier dirty
//     cluster, whose pinned input may have changed. Everything else keeps
//     its chosen pattern.
//   * failedPins() reads the session in place through its AccessView. It
//     keeps its evaluation context, every pin's verdict and the reach of
//     its check between calls, and records each instance's placement,
//     class and chosen pattern as it evaluated them. The next call diffs
//     the instances against that record, updates the context for the
//     changed ones only, and re-checks only the pins whose reach the old or
//     new footprint of a changed instance intersects; mutations log nothing
//     for it (see DESIGN.md "Incremental oracle session").
//
// Invariant (enforced by tests): after any mutation sequence, chosenPattern()
// equals a fresh PinAccessOracle::run() on the mutated design, and
// failedPins() equals countFailedPins() of that run, for any thread count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "db/row_index.hpp"
#include "db/unique_inst.hpp"
#include "obs/enabled.hpp"
#include "pao/access_cache.hpp"
#include "pao/cluster_select.hpp"
#include "pao/evaluate.hpp"
#include "pao/oracle.hpp"
#include "util/jobs.hpp"

#if PAO_OBS_ENABLED
#include "obs/profile.hpp"
#endif

namespace pao::core {

class OracleSession {
 public:
  /// Full analysis of `design`, then ready for mutations. The session owns
  /// no design data; `design` must outlive it and must only be mutated
  /// through the session (out-of-band Design mutation-API edits are detected
  /// via Design::revision() and rejected; direct field writes are not).
  explicit OracleSession(db::Design& design, OracleConfig cfg = {});
  /// Read-only session over a const design: same full analysis, but the
  /// mutation API throws std::logic_error. This is what the batch
  /// PinAccessOracle wraps.
  explicit OracleSession(const db::Design& design, OracleConfig cfg = {});

  // --- mutation API --------------------------------------------------------
  /// Each call applies the design edit, re-signatures the instance, and
  /// brings chosenPattern() back in sync by recomputing dirty clusters only.
  /// When the analysis of a new class throws, moveInstance, setOrient and
  /// addInstance undo the edit before rethrowing: design and session stay
  /// as they were.
  void moveInstance(int instIdx, geom::Point newOrigin);
  void setOrient(int instIdx, geom::Orient orient);
  /// Appends `inst` to the design; returns its instance index.
  int addInstance(db::Instance inst);
  /// Erases instance `instIdx`; indices above it shift down by one (the
  /// session renumbers all internal state accordingly).
  void removeInstance(int instIdx);

  // --- queries -------------------------------------------------------------
  const db::Design& design() const { return *design_; }
  const db::UniqueInstances& unique() const { return index_.classes(); }
  /// Steps 1-2 access of class `cls`, origin-relative (add a member
  /// instance's origin to place an access point). The reference is
  /// invalidated by mutations that create a new class.
  const ClassAccess& classAccess(int cls) const { return classes_[cls]; }
  /// Every class's access, parallel to unique().classes (same frame). The
  /// vector object lives as long as the session; its elements follow the
  /// classAccess() invalidation rule.
  const std::vector<ClassAccess>& classAccesses() const { return classes_; }
  /// Chosen pattern per instance (-1 when the class has none).
  const std::vector<int>& chosenPattern() const { return chosen_; }
  /// The placement rows, current with the design.
  const db::RowIndex& rows() const { return rows_; }
  /// The session's classes, class access and chosen patterns, read in
  /// place (it follows later mutations), with cfg.numThreads as the worker
  /// budget. Unlike snapshot(), a class left without members keeps its
  /// access; no instance refers to it.
  AccessView view() const {
    return {&index_.classes(), &classes_, &chosen_, cfg_.numThreads};
  }
  /// view().chosenAp at the instance's current location.
  std::optional<ChosenAp> chosenAp(int instIdx, int sigPinPos) const {
    return view().chosenAp(*design_, instIdx, sigPinPos);
  }
  /// Batch-equivalent result, exactly what PinAccessOracle::run() returns:
  /// the classes are copied as held (origin-relative), with classes left
  /// without members empty. Timings describe the initial full analysis, not
  /// later mutations.
  OracleResult snapshot() const;
  /// countFailedPins(design(), snapshot()) under the strict criterion,
  /// without details, evaluated through view() (no snapshot is taken).
  /// Updates the previous call's evaluation context for each instance that
  /// differs from that call's record (placement, class or chosen pattern),
  /// then re-checks only the pins whose last check could have read a shape
  /// of such an instance: none when no instance differs. The first call,
  /// and the first after addInstance, removeInstance, an exception in this
  /// call, or a change in an instance's number of chosen vias, builds the
  /// context afresh; all but the last also re-check every pin.
  FailedPinStats failedPins();
  /// The context the last failedPins() checked pins in (null before the
  /// first call and after one that threw). The next call updates it.
  const FailedPinContext* failedPinContext() const { return context_.get(); }

  /// Graceful-degradation events accumulated so far (cfg.keepGoing class
  /// fallbacks, Step-3 budget expiries). Unsorted accumulation order;
  /// snapshot() returns them canonically sorted.
  const std::vector<DegradedEvent>& degraded() const { return degraded_; }

  struct Stats {
    std::size_t mutations = 0;
    /// Cumulative Step-3 cluster-DP invocations (initial build included).
    std::size_t clusterDpRuns = 0;
    /// Dirty clusters recomputed by the last mutation, and the total
    /// cluster count after the last build or mutation — the incrementality
    /// headline (a full build sets the count with zero dirty clusters).
    std::size_t lastDirtyClusters = 0;
    std::size_t lastClusterCount = 0;
    /// Rows the last mutation re-split (published per mutation as
    /// "pao.session.rows_split").
    std::size_t lastRowsSplit = 0;
    /// Pins the last failedPins() call re-checked (published per call as
    /// "pao.eval.pins_rechecked").
    std::size_t lastPinsRechecked = 0;
    /// Steps 1-2 per-class analyses actually computed (signature misses).
    std::size_t classBuilds = 0;
    /// Per-class analyses answered from the configured AccessCache.
    std::size_t cacheHits = 0;
    /// Cumulative Step-3 boundary-via probes (the ClusterTally::pairChecks
    /// of every DP; each verdict entry is probed once per session), the
    /// same at any thread count; reported, and published as the
    /// "pao.step3.pair_checks" delta once per selection pass.
    std::size_t pairChecks = 0;
    /// Job-graph nodes of the full build plus mutation re-runs (one per
    /// class and one per cluster DP); the same at any thread count. The
    /// schedule itself (overlap, steals) is in lastGraphProfile().
    std::size_t graphJobs = 0;
  };
  const Stats& stats() const { return stats_; }

#if PAO_OBS_ENABLED
  /// Profile of the most recent pipeline job graph (initial build or
  /// mutation re-run). Feed to
  /// obs::analyzeProfile / obs::profileSectionJson for the run report.
  const obs::GraphProfile& lastGraphProfile() const { return graphProfile_; }
#endif

 private:
  void buildAll();
  /// What one class's analysis did: the thread-CPU seconds of its Steps 1
  /// and 2 and its cache and build counts. A class node writes it to its
  /// own slot; publishClassTally sends it to the registry afterwards.
  struct ClassTally {
    double step1 = 0;
    double step2 = 0;
    bool cacheHit = false;
    bool cacheMiss = false;
    bool built = false;
    /// classes_[c].pinAps are Step 1's own, so its tallies read them.
    bool generatedAps = false;
  };
  /// Steps 1-2 of class `c`, into classes_[c] origin-relative: a cache
  /// lookup, else access point generation and the pattern DP (the legacy
  /// generator and first-AP pattern in legacyMode, or as the cfg.keepGoing
  /// fallback). One job-graph node per class in the initial build, and the
  /// mutation path's analysis of a new class. Thread-safe across distinct
  /// classes; writes no registry metric. Returns its ClassTally (empty for
  /// a class left un-analyzed).
  ClassTally analyzeClass(std::size_t c);
  /// Publishes class `c`'s tally from analyzeClass: the cache and build
  /// counters, and for generated access points the Step-1 counters and
  /// one pao.step1.aps_per_pin observation per pin.
  void publishClassTally(std::size_t c, const ClassTally& tally) const;
  /// Grows per-class storage after the index created classes, then makes
  /// sure `cls` is analyzed.
  void ensureClassAccess(int cls);
  /// Applies `edit` (a geometry change of instance `instIdx`) and brings
  /// the session back in sync; on a class-analysis exception runs `undo`
  /// and restores the indices before rethrowing.
  template <typename Edit, typename Undo>
  void editGeometry(int instIdx, Edit&& edit, Undo&& undo);
  /// Re-splits the rows at `rowYs` (the rows the mutation's db::RowIndex
  /// edits touched), diffs each against its old runs, and re-runs the DP
  /// for dirty clusters only (`touched` = instances whose geometry or class
  /// changed in this mutation).
  void recomputeAfterMutation(std::span<const int> touched,
                              std::vector<geom::Coord>& rowYs);
  /// Index of the run of row `y` in rowClusters_ that holds `inst`.
  std::size_t runOf(geom::Coord y, int inst) const;
  /// What a failed-pin verdict reads of one instance besides its master
  /// and nets, which no placement mutation changes.
  struct InstState {
    geom::Point origin;
    geom::Orient orient = geom::Orient::R0;
    int cls = -1;
    int pattern = -1;
    bool operator==(const InstState&) const = default;
  };
  InstState stateOf(int inst) const;
  /// Everything of instance `inst` a failed-pin check can see in state `s`:
  /// its bbox, placed master shapes and chosen vias. One function serves
  /// the recorded and the current state.
  geom::Rect footprint(int inst, const InstState& s) const;
  /// Registers the clusters' abutment keys with the selector, sizes
  /// tallies_ to one slot per cluster, then adds one Step-3 DP node per
  /// cluster to `graph`, chained by clusterDeps, each writing only its own
  /// slot; with `classNode` (the initial build) each node also depends on
  /// its member classes' nodes. The one way both the build and a mutation
  /// schedule Step 3. `clusters` must outlive the run.
  void addClusterJobs(util::JobGraph& graph,
                      const std::vector<std::vector<int>>& clusters,
                      std::span<const util::JobId> classNode);
  /// The no-Step-3 selection of legacyMode: every instance takes pattern 0.
  void trivialSelection();
  /// After a selection pass: merges tallies_ in cluster order into the
  /// Step-3 stats, publishes the pass's "pao.step3.*" metrics once, and
  /// appends a "step3_budget" DegradedEvent when the pass expired its
  /// budget. Returns the pass's cluster-DP thread-CPU seconds.
  double finishSelectionPass();
  void requireMutable() const;

  const db::Design* design_;
  db::Design* mutableDesign_;  ///< null in read-only sessions
  OracleConfig cfg_;
  AccessCache* cache_;  ///< cfg_.cache; may be null
  std::mutex cacheMu_;
  db::UniqueInstanceIndex index_;
  /// Origin-relative per-class access, parallel to unique().classes.
  std::vector<ClassAccess> classes_;
  std::vector<char> classReady_;
  std::vector<int> chosen_;
  db::RowIndex rows_;
  /// Cluster structure the current chosen_ was computed against: each
  /// row's runs, left to right, keyed by row y. Map order is the cluster
  /// order of the initial build.
  std::map<geom::Coord, std::vector<std::vector<int>>> rowClusters_;
  /// Per pin of the evaluation context, the last failedPins() verdict and
  /// the reach of its check, and per instance the state it was evaluated
  /// in. An empty evaluated_ makes the next call rebuild the context and
  /// re-check every pin.
  std::vector<PinVerdict> verdicts_;
  std::vector<InstState> evaluated_;
  /// The evaluation context of the last failedPins(), as of evaluated_.
  std::unique_ptr<FailedPinContext> context_;
  std::unique_ptr<ClusterSelector> selector_;
  /// One slot per cluster of the running selection pass; emptied by
  /// finishSelectionPass.
  std::vector<ClusterTally> tallies_;
  std::uint64_t designRevision_ = 0;
  Stats stats_;
  std::vector<DegradedEvent> degraded_;  ///< guarded by cacheMu_ during 1-2
  /// OracleResult timings of the initial build, stamped once as it ends.
  double wallSeconds_ = 0;
  double step1CpuSeconds_ = 0;
  double step2CpuSeconds_ = 0;
  double step3CpuSeconds_ = 0;
#if PAO_OBS_ENABLED
  obs::GraphProfile graphProfile_;
#endif
};

}  // namespace pao::core
