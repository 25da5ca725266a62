// PinAccessOracle — the facade that runs the full three-step pin access
// analysis flow of the paper on a design:
//   Step 1  pin-based access point generation per unique instance,
//   Step 2  DP-based access pattern generation per unique instance,
//   Step 3  DP-based access pattern selection per instance cluster.
// A legacy mode substitutes the TritonRoute-v0.0.6.0-style generator and a
// trivial first-point "pattern", reproducing the paper's TrRte baseline.
#pragma once

#include <optional>
#include <vector>

#include "db/unique_inst.hpp"
#include "obs/enabled.hpp"
#include "pao/access_cache.hpp"
#include "pao/ap_gen.hpp"
#include "pao/cluster_select.hpp"
#include "pao/legacy_ap.hpp"
#include "pao/pattern_gen.hpp"

#if PAO_OBS_ENABLED
#include "obs/profile.hpp"
#endif

namespace pao::core {

struct OracleConfig {
  ApGenConfig apGen;
  PatternGenConfig patternGen;
  /// Step-3 settings, used as written. clusterSelect.budgetSeconds is the
  /// Step-3 wall-clock budget (0 = unlimited; pao_cli --step3-budget): on
  /// expiry the remaining clusters commit each instance's cheapest
  /// standalone pattern and a "step3_budget" DegradedEvent is recorded.
  ClusterSelectConfig clusterSelect;
  /// TrRte baseline: legacy AP generation, first-AP patterns, no Step 3 DP.
  bool legacyMode = false;
  /// Worker threads for the whole flow (the paper's "support of
  /// multi-threading" future-work item): Steps 1-2 over unique instances and
  /// the Step-3 cluster DP all run on one job graph. Results are identical
  /// for any thread count. 1 = serial; 0 = hardware concurrency.
  int numThreads = 1;
  /// Optional cross-run cache of intra-cell results keyed by signature —
  /// reusable across placement changes. Not owned; may be nullptr.
  AccessCache* cache = nullptr;
  /// Graceful degradation (pao_cli --keep-going): when a unique class's
  /// Steps 1-2 analysis throws, fall back to the legacy generator for that
  /// class (then to empty access if the fallback throws too) and record a
  /// DegradedEvent instead of aborting the whole run. Off (strict) by
  /// default: the first per-class exception propagates.
  bool keepGoing = false;
};

/// One graceful-degradation event of a keep-going run. Kinds:
///   "class_fallback" — Steps 1-2 threw for a unique class; the class took
///                      the legacy-generator fallback (detail = what()).
///   "class_failed"   — the legacy fallback threw as well; the class has no
///                      access (its instances report failed pins).
///   "step3_budget"   — the Step-3 budget expired; late clusters committed
///                      best-so-far patterns instead of the DP.
struct DegradedEvent {
  std::string kind;
  std::string detail;
  /// Unique-class index for class-scoped kinds, -1 otherwise.
  int cls = -1;
};

/// Convenience preset: PAAF without boundary-conflict awareness (Table III
/// "w/o BCA" column) — a single pattern per unique instance.
OracleConfig withoutBcaConfig();
/// PAAF with BCA (Table III "w/ BCA") — up to three diversified patterns.
OracleConfig withBcaConfig();
/// TrRte v0.0.6.0-style baseline.
OracleConfig legacyConfig();

/// An access point chosen for one pin, placed at its instance: `ap` as
/// stored (origin-relative) and `loc` = ap.loc + the instance origin.
struct ChosenAp {
  const AccessPoint* ap = nullptr;
  geom::Point loc;
};

/// What the evaluators and the router read of one analysis, in place: the
/// unique-instance classes (the class of each instance), each class's
/// origin-relative access, the chosen pattern per instance, and the worker
/// budget the evaluators run on. OracleResult::view() and
/// OracleSession::view() provide one; it reads its source's containers, so
/// a session's view follows the session's mutations.
struct AccessView {
  const db::UniqueInstances* unique = nullptr;
  const std::vector<ClassAccess>* classes = nullptr;
  const std::vector<int>* chosen = nullptr;
  int numThreads = 1;

  /// Class of instance `instIdx` (-1 when it has none).
  int classOf(int instIdx) const { return unique->classOf[instIdx]; }
  const ClassAccess& access(int cls) const { return (*classes)[cls]; }
  int pattern(int instIdx) const { return (*chosen)[instIdx]; }
  /// The access point chosen for (instance, signal-pin position), placed at
  /// the instance (see placeChosenAp); nullopt when the pin has no chosen
  /// access.
  std::optional<ChosenAp> chosenAp(const db::Design& design, int instIdx,
                                   int sigPinPos) const;
};

struct OracleResult {
  db::UniqueInstances unique;
  /// Per unique-instance class, parallel to unique.classes, relative to the
  /// instance origin (the frame the session and the AccessCache hold):
  /// member instance i places an access point at ap.loc + its origin.
  /// Classes of masters without signal pins, and classes left without
  /// members, have empty pinAps/patterns.
  std::vector<ClassAccess> classes;
  /// Chosen pattern per instance (-1 when the class has none).
  std::vector<int> chosenPattern;
  /// Graceful-degradation events of a keepGoing run, canonically sorted
  /// (by cls, then kind, then detail). Empty means the result is exactly
  /// what a fault-free strict run would have produced.
  std::vector<DegradedEvent> degraded;
  /// Worker budget of the run that produced this result (a copy of
  /// OracleConfig::numThreads). The evaluators that take the result
  /// (countDirtyAps, countFailedPins) run on it; their output does not
  /// depend on it.
  int numThreads = 1;

  /// Timings of the initial full analysis, stamped once when it ends (a
  /// session's later mutations leave them unchanged):
  ///   * wallSeconds — elapsed time of the whole flow: "how long did I
  ///     wait".
  ///   * step{1,2,3}CpuSeconds — per-thread CPU time (CLOCK_THREAD_CPUTIME_ID)
  ///     of each step's work, summed over classes (Steps 1-2) and cluster
  ///     DPs (Step 3): "where did the cycles go". Immune to preemption and
  ///     comparable across thread counts; at numThreads > 1 their sum may
  ///     exceed wallSeconds.
  /// Per-phase and per-node wall time lives in the traces
  /// ("oracle.pipeline", "step3.cluster_dp") and the job-graph profile.
  /// The pao-report/1 "oracle" section carries all four.
  double wallSeconds = 0;
  double step1CpuSeconds = 0;
  double step2CpuSeconds = 0;
  double step3CpuSeconds = 0;

  /// Total access points generated across all unique-instance pins
  /// (Table II "Total #APs").
  std::size_t totalAps() const;
  AccessView view() const {
    return {&unique, &classes, &chosenPattern, numThreads};
  }
  /// view().chosenAp.
  std::optional<ChosenAp> chosenAp(const db::Design& design, int instIdx,
                                   int sigPinPos) const {
    return view().chosenAp(design, instIdx, sigPinPos);
  }
};

/// The one placement of a chosen access point: the AP that `pattern` of
/// class access `ca` picks for signal-pin position `sigPinPos`, at
/// ap.loc + `origin` (the member instance's origin); nullopt when the
/// pattern or the pin has none.
std::optional<ChosenAp> placeChosenAp(const ClassAccess& ca, int pattern,
                                      int sigPinPos, geom::Point origin);

/// The one-shot batch facade. Internally a thin wrapper over a read-only
/// pao::core::OracleSession — use a session directly when the design will
/// mutate and you want incremental recomputation (see pao/session.hpp).
class PinAccessOracle {
 public:
  explicit PinAccessOracle(const db::Design& design, OracleConfig cfg = {});

  /// Runs the configured flow end to end.
  OracleResult run();

#if PAO_OBS_ENABLED
  /// Profile of the pipeline job graph of the last run() (empty before the
  /// first run). The benches feed this to BenchReport::attachProfile.
  const obs::GraphProfile& lastGraphProfile() const { return graphProfile_; }
#endif

 private:
  const db::Design* design_;
  OracleConfig cfg_;
#if PAO_OBS_ENABLED
  obs::GraphProfile graphProfile_;
#endif
};

}  // namespace pao::core
