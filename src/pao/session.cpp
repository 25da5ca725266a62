#include "pao/session.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <stdexcept>
#include <tuple>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pao/ap_gen.hpp"
#include "pao/inst_context.hpp"
#include "pao/legacy_ap.hpp"
#include "pao/pattern_gen.hpp"
#include "util/cpu_time.hpp"
#include "util/fault.hpp"
#include "util/jobs.hpp"

namespace pao::core {

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The TrRte baseline has no pattern stage: every pin just takes its first
/// access point.
AccessPattern firstApPattern(const std::vector<std::vector<AccessPoint>>& aps) {
  AccessPattern pat;
  pat.apIdx.reserve(aps.size());
  for (const std::vector<AccessPoint>& pinAps : aps) {
    pat.apIdx.push_back(pinAps.empty() ? -1 : 0);
  }
  pat.validated = false;  // never checked, by construction of the baseline
  return pat;
}

}  // namespace

OracleSession::OracleSession(db::Design& design, OracleConfig cfg)
    : design_(&design),
      mutableDesign_(&design),
      cfg_(cfg),
      cache_(cfg.cache),
      index_(design, cfg.numThreads) {
  buildAll();
}

OracleSession::OracleSession(const db::Design& design, OracleConfig cfg)
    : design_(&design),
      mutableDesign_(nullptr),
      cfg_(cfg),
      cache_(cfg.cache),
      index_(design, cfg.numThreads) {
  buildAll();
}

void OracleSession::requireMutable() const {
  if (mutableDesign_ == nullptr) {
    throw std::logic_error(
        "OracleSession: mutation on a read-only session (construct from a "
        "mutable db::Design& to mutate)");
  }
  if (design_->revision() != designRevision_) {
    throw std::logic_error(
        "OracleSession: design was mutated outside the session");
  }
}

/// State threaded from a class's Step-1 node to its Step-2 node in the
/// pipeline graph. The graph edge S1(c) -> S2(c) provides the
/// happens-before; nothing here needs synchronization.
struct OracleSession::ClassBuildState {
  /// Entered the full analysis path (not unplaced/pinless/cache-hit):
  /// classStep2 owes this class finalization (normalize, cache, stats).
  bool analyzed = false;
  /// classStep2 must still run the pattern DP (false in legacyMode and
  /// after a Step-1 keepGoing fallback, which already produced patterns).
  bool patternsPending = false;
  std::optional<InstContext> ctx;
  AccessCache::Key key{};
  geom::Point repOrigin{};
  std::optional<DegradedEvent> event;
  double step1 = 0;
  double step2 = 0;
  double cpu1 = 0;
  double cpu2 = 0;
};

namespace {

/// TrRte-style access for one class: legacy APs + first-AP pattern. The
/// primary path in legacyMode, and the keep-going fallback otherwise.
void legacyAccessInto(ClassAccess& ca, const InstContext& ctx) {
  ca.pinAps = LegacyApGenerator(ctx).generateAll();
  ca.patterns.push_back(firstApPattern(ca.pinAps));
  for (int i = 0; i < static_cast<int>(ca.pinAps.size()); ++i) {
    if (!ca.pinAps[i].empty()) ca.pinOrder.push_back(i);
  }
}

}  // namespace

void OracleSession::fallbackToLegacy(std::size_t c, ClassBuildState& st,
                                     const std::exception& e) {
  st.event = DegradedEvent{"class_fallback", e.what(), static_cast<int>(c)};
  st.patternsPending = false;
  ClassAccess& ca = classes_[c];
  ca = ClassAccess{};
  try {
    const auto t1 = std::chrono::steady_clock::now();
    const double cpu1 = util::threadCpuSeconds();
    legacyAccessInto(ca, *st.ctx);
    st.step1 += secondsSince(t1);
    st.cpu1 += util::threadCpuSeconds() - cpu1;
  } catch (const std::exception& e2) {
    // Even the fallback failed: the class keeps empty access (its pins
    // count as failed) but the run continues.
    ca = ClassAccess{};
    st.event = DegradedEvent{"class_failed", e2.what(), static_cast<int>(c)};
  }
}

void OracleSession::classStep1(std::size_t c, ClassBuildState& st) {
  const db::UniqueInstance& ui = index_.classes().classes[c];
  if (ui.members.empty()) return;  // nothing placed; stays un-analyzed
  ClassAccess& ca = classes_[c];
  classReady_[c] = 1;
  if (ui.master->signalPinIndices().empty()) return;  // fillers etc.

  st.key = AccessCache::keyOf(ui);
  if (cache_ != nullptr && !cfg_.legacyMode) {
    std::lock_guard<std::mutex> lock(cacheMu_);
    if (const ClassAccess* hit = cache_->find(st.key)) {
      ca = *hit;  // stored origin-relative, same as the session convention
      ++stats_.cacheHits;
      PAO_COUNTER_INC("pao.oracle.cache_hits");
      return;
    }
    PAO_COUNTER_INC("pao.oracle.cache_misses");
  }

  st.analyzed = true;
  st.repOrigin = design_->instances[ui.representative].origin;
  st.ctx.emplace(*design_, ui);
  PAO_TRACE_SCOPE("oracle.class_access");
  try {
    // The fault point models "this class's Steps 1-2 analysis blew up";
    // legacyMode has no deeper fallback to degrade to, so it stays strict.
    if (!cfg_.legacyMode) PAO_FAULT_INJECT("oracle.class_access");
    const auto t1 = std::chrono::steady_clock::now();
    const double cpu1 = util::threadCpuSeconds();
    if (cfg_.legacyMode) {
      legacyAccessInto(ca, *st.ctx);
    } else {
      ApGenConfig apCfg = cfg_.apGen;
      // Macro (block) pins admit planar access: via access is only
      // mandatory for standard cells (paper footnote 1).
      if (ui.master->cls == db::MasterClass::kBlock) apCfg.requireVia = false;
      ca.pinAps = AccessPointGenerator(*st.ctx, apCfg).generateAll();
      st.patternsPending = true;
    }
    st.step1 = secondsSince(t1);
    st.cpu1 = util::threadCpuSeconds() - cpu1;
  } catch (const std::exception& e) {
    if (!cfg_.keepGoing || cfg_.legacyMode) throw;
    fallbackToLegacy(c, st, e);
  }
}

void OracleSession::classStep2(std::size_t c, ClassBuildState& st) {
  if (!st.analyzed) return;
  ClassAccess& ca = classes_[c];
  if (st.patternsPending) {
    PAO_TRACE_SCOPE("oracle.class_access");
    try {
      const auto t2 = std::chrono::steady_clock::now();
      const double cpu2 = util::threadCpuSeconds();
      PatternGenerator gen(*st.ctx, ca.pinAps, cfg_.patternGen);
      ca.patterns = gen.run();
      ca.pinOrder = gen.pinOrder();
      st.step2 = secondsSince(t2);
      st.cpu2 = util::threadCpuSeconds() - cpu2;
    } catch (const std::exception& e) {
      if (!cfg_.keepGoing || cfg_.legacyMode) throw;
      fallbackToLegacy(c, st, e);
    }
  }
  PAO_COUNTER_INC("pao.oracle.class_builds");

  // Normalize to origin-relative so the entry is placement-independent.
  ca = AccessCache::translate(ca, geom::Point{0, 0} - st.repOrigin);

  std::lock_guard<std::mutex> lock(cacheMu_);
  // A degraded class result must never poison the cross-run cache: a later
  // fault-free run would silently inherit the fallback access.
  if (cache_ != nullptr && !cfg_.legacyMode && !st.event) {
    cache_->store(st.key, ca);
  }
  if (st.event) degraded_.push_back(std::move(*st.event));
  ++stats_.classBuilds;
  step1Seconds_ += st.step1;
  step2Seconds_ += st.step2;
  step1CpuSeconds_ += st.cpu1;
  step2CpuSeconds_ += st.cpu2;
}

void OracleSession::computeClassAccess(std::size_t c) {
  ClassBuildState st;
  classStep1(c, st);
  classStep2(c, st);
}

void OracleSession::buildAll() {
  PAO_TRACE_SCOPE("oracle.build");
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t numClasses = index_.classes().classes.size();
  classes_.assign(numClasses, ClassAccess{});
  classReady_.assign(numClasses, 0);

  // The whole flow runs as ONE job graph (ROADMAP item 2): each class
  // contributes a Step-1 node chained to a Step-2 node, and each cluster a
  // Step-3 DP node depending only on its member classes' Step-2 nodes plus
  // the same-instance predecessor clusters (clusterDeps). A cluster whose
  // classes finished early therefore overlaps other classes' Steps 1-2 —
  // there is no barrier between the phases. Node ids interleave
  // S1(0),S2(0),S1(1),... so a strict-mode failure still rethrows the
  // lowest class's exception. The legacy baseline has no Step-2 DP to split
  // off: one fused node per class, no cluster nodes, and the trivial
  // selection after the graph.
  std::vector<ClassBuildState> states(numClasses);
  pendingSteps12_.store(numClasses, std::memory_order_relaxed);
  overlapJobs_.store(0, std::memory_order_relaxed);
  step3Started_.store(false, std::memory_order_relaxed);
  const auto steps12Done = [this, t0] {
    if (pendingSteps12_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      steps12WallSeconds_ = secondsSince(t0);
    }
  };

  util::JobGraph graph;
  std::vector<util::JobId> s2Id(numClasses);
  for (std::size_t c = 0; c < numClasses; ++c) {
    if (cfg_.legacyMode) {
      graph.addJob([this, c, steps12Done] {
        computeClassAccess(c);
        steps12Done();
      });
      continue;
    }
    const util::JobId s1 =
        graph.addJob([this, c, &states] { classStep1(c, states[c]); });
    const util::JobId s1Dep[] = {s1};
    s2Id[c] = graph.addJob(
        [this, c, &states, steps12Done] {
          classStep2(c, states[c]);
          steps12Done();
        },
        s1Dep);
  }
  if (!cfg_.legacyMode) {
    selector_ = std::make_unique<ClusterSelector>(
        *design_, index_.classes(), classes_, cfg_.clusterSelect);
    selector_->armBudget();
    chosen_.assign(design_->instances.size(), -1);
    clusters_ = buildClusters(*design_);
    addClusterJobs(graph, clusters_, s2Id);
  }

  {
    PAO_TRACE_SCOPE("oracle.pipeline");
    graph.run(cfg_.numThreads);
  }

  stats_.graphJobs = graph.stats().jobs;
  stats_.overlapJobs = overlapJobs_.load(std::memory_order_relaxed);
  stats_.graphSteals = graph.stats().steals;
#if PAO_OBS_ENABLED
  graphProfile_ = graph.profile();
#endif
  if (cfg_.legacyMode) {
    const auto t3 = std::chrono::steady_clock::now();
    trivialSelection();
    step3Seconds_ = secondsSince(t3);
  } else {
    finishSelectionPass();
    // step3Seconds_ spans from the first DP node's start to the end of the
    // graph — with overlap, "Step-3 wall time" necessarily includes tail
    // Steps 1-2 work running alongside.
    step3Seconds_ = step3Started_.load(std::memory_order_relaxed)
                        ? secondsSince(step3T0_)
                        : 0.0;
  }
  wallSeconds_ = secondsSince(t0);
  designRevision_ = design_->revision();
}

void OracleSession::addClusterJobs(
    util::JobGraph& graph, const std::vector<std::vector<int>>& clusters,
    std::span<const util::JobId> classStep2) {
  selector_->addPairKeys(clusters);
  const std::vector<std::vector<std::size_t>> cDeps = clusterDeps(clusters);
  const std::vector<int>& classOf = index_.classes().classOf;
  std::vector<util::JobId> ids(clusters.size());
  std::vector<util::JobId> deps;
  for (std::size_t k = 0; k < clusters.size(); ++k) {
    deps.clear();
    if (!classStep2.empty()) {
      for (const int inst : clusters[k]) {
        const int cls = classOf[inst];
        if (cls >= 0) deps.push_back(classStep2[static_cast<std::size_t>(cls)]);
      }
    }
    for (const std::size_t d : cDeps[k]) deps.push_back(ids[d]);
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    ids[k] = graph.addJob(
        [this, k, &clusters] {
          if (pendingSteps12_.load(std::memory_order_acquire) > 0) {
            overlapJobs_.fetch_add(1, std::memory_order_relaxed);
          }
          bool expected = false;
          if (step3Started_.compare_exchange_strong(expected, true)) {
            step3T0_ = std::chrono::steady_clock::now();
          }
          selector_->selectCluster(clusters[k], chosen_);
        },
        deps);
  }
}

void OracleSession::trivialSelection() {
  chosen_.assign(design_->instances.size(), -1);
  for (std::size_t i = 0; i < design_->instances.size(); ++i) {
    const int cls = index_.classes().classOf[i];
    if (cls >= 0 && classReady_[cls] && !classes_[cls].patterns.empty()) {
      chosen_[i] = 0;
    }
  }
}

void OracleSession::ensureClassAccess(int cls) {
  const std::size_t numClasses = index_.classes().classes.size();
  if (classes_.size() < numClasses) {
    classes_.resize(numClasses);
    classReady_.resize(numClasses, 0);
  }
  if (!classReady_[cls]) computeClassAccess(static_cast<std::size_t>(cls));
}

void OracleSession::onGeometryChanged(int instIdx) {
  index_.update(instIdx);
  ensureClassAccess(index_.classOf(instIdx));
  recomputeAfterMutation({instIdx});
}

void OracleSession::moveInstance(int instIdx, geom::Point newOrigin) {
  requireMutable();
  mutableDesign_->moveInstance(instIdx, newOrigin);
  onGeometryChanged(instIdx);
}

void OracleSession::setOrient(int instIdx, geom::Orient orient) {
  requireMutable();
  mutableDesign_->setInstanceOrient(instIdx, orient);
  onGeometryChanged(instIdx);
}

int OracleSession::addInstance(db::Instance inst) {
  requireMutable();
  const int idx = mutableDesign_->addInstance(std::move(inst));
  index_.add(idx);
  chosen_.push_back(-1);
  ensureClassAccess(index_.classOf(idx));
  recomputeAfterMutation({idx});
  return idx;
}

void OracleSession::removeInstance(int instIdx) {
  requireMutable();
  index_.remove(instIdx);
  mutableDesign_->removeInstance(instIdx);
  chosen_.erase(chosen_.begin() + instIdx);
  // Clusters that contained the instance lose their identity entirely (the
  // survivors' abutment changed, so their old DP result must not be reused
  // under the remapped member list); all other stored clusters renumber.
  for (std::vector<int>& cluster : clusters_) {
    if (std::find(cluster.begin(), cluster.end(), instIdx) != cluster.end()) {
      cluster.clear();
      continue;
    }
    for (int& m : cluster) {
      if (m > instIdx) --m;
    }
  }
  std::erase_if(clusters_,
                [](const std::vector<int>& c) { return c.empty(); });
  recomputeAfterMutation({});
}

void OracleSession::recomputeAfterMutation(const std::vector<int>& touched) {
  PAO_TRACE_SCOPE("session.mutation");
  ++stats_.mutations;
  PAO_COUNTER_INC("pao.session.mutations");
  designRevision_ = design_->revision();
  if (cfg_.legacyMode) {
    trivialSelection();
    return;
  }

  std::vector<std::vector<int>> newClusters = buildClusters(*design_);
  const std::set<std::vector<int>> oldSet(clusters_.begin(), clusters_.end());
  const std::size_t numInst = design_->instances.size();
  std::vector<char> touchedInst(numInst, 0);
  for (const int t : touched) touchedInst[t] = 1;

  // Dirty = structurally new, contains a touched instance, or — checked in
  // cluster (i.e. pinning) order — shares an instance with an earlier dirty
  // cluster, whose pinned multi-height decision may have changed.
  std::vector<char> dirty(newClusters.size(), 0);
  std::vector<char> instDirty(numInst, 0);
  for (std::size_t c = 0; c < newClusters.size(); ++c) {
    bool d = oldSet.find(newClusters[c]) == oldSet.end();
    if (!d) {
      for (const int inst : newClusters[c]) {
        if (touchedInst[inst] != 0 || instDirty[inst] != 0) {
          d = true;
          break;
        }
      }
    }
    if (d) {
      dirty[c] = 1;
      for (const int inst : newClusters[c]) instDirty[inst] = 1;
    }
  }

  // Reset the choice of instances that appear only in dirty clusters; an
  // instance shared with a clean cluster keeps that cluster's (earlier, and
  // unchanged) decision as a pin for the re-run.
  std::vector<char> inClean(numInst, 0);
  std::vector<std::vector<int>> dirtyClusters;
  for (std::size_t c = 0; c < newClusters.size(); ++c) {
    if (dirty[c] == 0) {
      for (const int inst : newClusters[c]) inClean[inst] = 1;
    } else {
      dirtyClusters.push_back(newClusters[c]);
    }
  }
  for (const std::vector<int>& cluster : dirtyClusters) {
    for (const int inst : cluster) {
      if (inClean[inst] == 0) chosen_[inst] = -1;
    }
  }

  // Re-run the DP for dirty clusters only, on the same job-graph shape as
  // the initial build: disjoint clusters overlap, chained ones replay their
  // serial pinning order. Each mutation gets a fresh Step-3 budget.
  selector_->armBudget();
  {
    util::JobGraph graph;
    addClusterJobs(graph, dirtyClusters, {});
    graph.run(cfg_.numThreads);
    stats_.graphJobs += graph.stats().jobs;
    stats_.graphSteals += graph.stats().steals;
#if PAO_OBS_ENABLED
    if (graph.size() > 0) graphProfile_ = graph.profile();
#endif
  }
  stats_.lastDirtyClusters = dirtyClusters.size();
  clusters_ = std::move(newClusters);
  finishSelectionPass();
  PAO_COUNTER_ADD("pao.session.dirty_clusters", dirtyClusters.size());
}

void OracleSession::finishSelectionPass() {
  const std::size_t pairChecks = selector_->numPairChecks();
  if (pairChecks > stats_.pairChecks) {
    PAO_COUNTER_ADD("pao.step3.pair_checks", pairChecks - stats_.pairChecks);
  }
  stats_.pairChecks = pairChecks;
  stats_.lastClusterCount = clusters_.size();
  stats_.clusterDpRuns = selector_->numDpRuns();
  step3CpuSeconds_ = selector_->dpCpuSeconds();
  if (!selector_->budgetExpired()) return;
  degraded_.push_back(
      {"step3_budget",
       std::to_string(selector_->expiredClusters()) +
           " cluster(s) committed best-so-far patterns on budget expiry",
       -1});
}

std::optional<OracleResult::ChosenAp> OracleSession::chosenAp(
    int instIdx, int sigPinPos) const {
  const int cls = index_.classes().classOf[instIdx];
  if (cls < 0) return std::nullopt;
  return placeChosenAp(classes_[cls], chosen_[instIdx], sigPinPos,
                       design_->instances[instIdx].origin);
}

OracleResult OracleSession::snapshot() const {
  OracleResult r;
  r.unique = index_.classes();
  // Same origin-relative frame as classes_; a class left without members
  // reads as empty, as in a fresh run.
  r.classes = classes_;
  for (std::size_t c = 0; c < r.classes.size(); ++c) {
    if (r.unique.classes[c].members.empty()) r.classes[c] = ClassAccess{};
  }
  r.chosenPattern = chosen_;
  r.degraded = degraded_;
  r.numThreads = cfg_.numThreads;
  // Canonical order: computeClassAccess appends in worker-completion order,
  // which is schedule-dependent under numThreads > 1.
  std::sort(r.degraded.begin(), r.degraded.end(),
            [](const DegradedEvent& a, const DegradedEvent& b) {
              return std::tie(a.cls, a.kind, a.detail) <
                     std::tie(b.cls, b.kind, b.detail);
            });
  r.step1Seconds = step1Seconds_;
  r.step2Seconds = step2Seconds_;
  r.step3Seconds = step3Seconds_;
  r.wallSeconds = wallSeconds_;
  r.step1CpuSeconds = step1CpuSeconds_;
  r.step2CpuSeconds = step2CpuSeconds_;
  r.step3CpuSeconds = step3CpuSeconds_;
  r.steps12WallSeconds = steps12WallSeconds_;
  return r;
}

}  // namespace pao::core
