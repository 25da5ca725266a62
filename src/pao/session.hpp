// OracleSession — the incremental, long-lived form of the pin access
// oracle. Where PinAccessOracle::run() answers one batch query, a session
// holds the design plus the full Steps 1-3 state (unique-instance classes,
// per-class access, cluster structure, chosen patterns) and keeps it
// consistent under placement mutations, recomputing only what a mutation
// invalidates:
//   * Steps 1-2 are keyed by unique-instance signature: a mutation that
//     lands an instance in an already-seen class costs a lookup; a new
//     signature costs one per-class analysis (added to the AccessCache when
//     one is configured, so the work survives the session too).
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
//   * failedPins() keeps every pin's verdict and the reach of its check
//     between calls and re-checks only the pins whose reach a changed
//     shape intersects (see DESIGN.md "Incremental oracle session").
//
// Invariant (enforced by tests): after any mutation sequence, chosenPattern()
// equals a fresh PinAccessOracle::run() on the mutated design, and
// failedPins() equals countFailedPins() of that run, for any thread count.
#pragma once

#include <atomic>
#include <chrono>
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
  /// The access point chosen for (instance, signal-pin position), placed at
  /// the instance's current location.
  std::optional<OracleResult::ChosenAp> chosenAp(int instIdx,
                                                 int sigPinPos) const;
  /// Batch-equivalent result, exactly what PinAccessOracle::run() returns:
  /// the classes are copied as held (origin-relative), with classes left
  /// without members empty. Timings describe the initial full analysis, not
  /// later mutations.
  OracleResult snapshot() const;
  /// countFailedPins(design(), snapshot()) under the strict criterion,
  /// without details. Rebuilds the evaluation context, then re-checks only
  /// the pins whose last check could have read a shape changed since the
  /// previous call: every pin on the first call, after addInstance or
  /// removeInstance, and after an exception in a mutation or in this call.
  FailedPinStats failedPins();

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
    /// Step-3 boundary pair checks (ClusterSelector::numPairChecks), the
    /// same at any thread count; reported, and published as the
    /// "pao.step3.pair_checks" delta once per selection pass.
    std::size_t pairChecks = 0;
    /// Job-graph shape of the last full build plus mutation re-runs:
    /// total nodes, Step-3 DP nodes that started while Steps 1-2 work was
    /// still pending (the pipeline-overlap headline), and cross-worker
    /// steals. graphJobs/overlapJobs are deterministic for a fixed thread
    /// count; graphSteals is schedule-dependent (bench-only — neither is
    /// part of the canonical report output).
    std::size_t graphJobs = 0;
    std::size_t overlapJobs = 0;
    std::size_t graphSteals = 0;
  };
  const Stats& stats() const { return stats_; }

#if PAO_OBS_ENABLED
  /// Profile of the most recent pipeline job graph (initial build or
  /// mutation re-run). Feed to
  /// obs::analyzeProfile / obs::profileSectionJson for the run report.
  const obs::GraphProfile& lastGraphProfile() const { return graphProfile_; }
#endif

 private:
  /// Per-class build state threaded between the Step-1 and Step-2 job-graph
  /// nodes of one class (defined in session.cpp).
  struct ClassBuildState;

  void buildAll();
  /// Computes (or cache-loads) class `c`'s origin-relative Steps 1-2 access
  /// into classes_[c]. Thread-safe across distinct classes. The fused form
  /// of classStep1 + classStep2, used on the mutation path.
  void computeClassAccess(std::size_t c);
  /// Step 1 of class `c`: cache lookup, then access point generation (or the
  /// legacy generator in legacyMode). One job-graph node per class (fused
  /// with Step 2 through computeClassAccess in legacyMode).
  void classStep1(std::size_t c, ClassBuildState& st);
  /// Step 2 of class `c`: pattern DP, origin normalization, cache store and
  /// stats commit. Depends on classStep1(c) in the pipeline graph.
  void classStep2(std::size_t c, ClassBuildState& st);
  /// keepGoing fallback shared by both steps: legacy access for the class,
  /// or empty access (class_failed) when even that throws.
  void fallbackToLegacy(std::size_t c, ClassBuildState& st,
                        const std::exception& e);
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
  /// changed in this mutation). With `track`, records the footprints of
  /// instances whose chosen pattern the re-run changed.
  void recomputeAfterMutation(std::span<const int> touched,
                              std::vector<geom::Coord>& rowYs, bool track);
  /// Index of the run of row `y` in rowClusters_ that holds `inst`.
  std::size_t runOf(geom::Coord y, int inst) const;
  /// Everything of instance `inst` a failed-pin check can see under
  /// pattern `pattern`: its bbox, placed master shapes and chosen vias.
  geom::Rect footprint(int inst, int pattern) const;
  /// Registers the clusters' abutment keys with the selector, then adds one
  /// Step-3 DP node per cluster to `graph`, chained by clusterDeps; with
  /// `classStep2` (the initial build) each node also depends on its member
  /// classes' Step-2 nodes. The one way both the build and a mutation
  /// schedule Step 3. `clusters` must outlive the run.
  void addClusterJobs(util::JobGraph& graph,
                      const std::vector<std::vector<int>>& clusters,
                      std::span<const util::JobId> classStep2);
  /// The no-Step-3 selection of legacyMode: every instance takes pattern 0.
  void trivialSelection();
  /// After a selection pass over clusters_: updates the Step-3 stats,
  /// publishes the pass's "pao.step3.pair_checks" delta, and appends a
  /// "step3_budget" DegradedEvent when the pass expired its budget.
  void finishSelectionPass();
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
  /// order of buildClusters.
  std::map<geom::Coord, std::vector<std::vector<int>>> rowClusters_;
  /// Per pin of the evaluation context, the last failedPins() verdict and
  /// the reach of its check. Valid (verdictsValid_) only while every
  /// change since is recorded in changedBoxes_ (footprints before and
  /// after each change).
  std::vector<PinVerdict> verdicts_;
  bool verdictsValid_ = false;
  std::vector<geom::Rect> changedBoxes_;
  std::unique_ptr<ClusterSelector> selector_;
  std::uint64_t designRevision_ = 0;
  Stats stats_;
  std::vector<DegradedEvent> degraded_;  ///< guarded by cacheMu_ during 1-2
  double step1Seconds_ = 0;
  double step2Seconds_ = 0;
  double step3Seconds_ = 0;
  double wallSeconds_ = 0;
  double step1CpuSeconds_ = 0;
  double step2CpuSeconds_ = 0;
  double step3CpuSeconds_ = 0;
  double steps12WallSeconds_ = 0;
  /// Pipeline-graph bookkeeping for the initial build: Steps 1-2 nodes not
  /// yet finished (the Step-2 node that drains it stamps
  /// steps12WallSeconds_), Step-3 nodes that started while it was nonzero,
  /// and the start time of the first Step-3 node (step3Started_ winner
  /// writes step3T0_; read after the graph joins).
  std::atomic<std::size_t> pendingSteps12_{0};
  std::atomic<std::size_t> overlapJobs_{0};
  std::atomic<bool> step3Started_{false};
  std::chrono::steady_clock::time_point step3T0_{};
#if PAO_OBS_ENABLED
  obs::GraphProfile graphProfile_;
#endif
};

}  // namespace pao::core
