#include "pao/session.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <queue>
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
      index_(design, cfg.numThreads),
      rows_(design) {
  buildAll();
}

OracleSession::OracleSession(const db::Design& design, OracleConfig cfg)
    : design_(&design),
      mutableDesign_(nullptr),
      cfg_(cfg),
      cache_(cfg.cache),
      index_(design, cfg.numThreads),
      rows_(design) {
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
  // Step 3's clusters: each row's runs, with the end of each row's runs in
  // `clusters` (filed by row once the graph has run).
  std::vector<std::vector<int>> clusters;
  std::vector<std::size_t> rowEnds;
  if (!cfg_.legacyMode) {
    selector_ = std::make_unique<ClusterSelector>(
        *design_, index_.classes(), classes_, cfg_.clusterSelect);
    selector_->armBudget();
    chosen_.assign(design_->instances.size(), -1);
    for (const db::RowIndex::Row& row : rows_.rows()) {
      splitRow(*design_, row, clusters);
      rowEnds.push_back(clusters.size());
    }
    PAO_COUNTER_ADD("pao.step3.clusters_built", clusters.size());
    addClusterJobs(graph, clusters, s2Id);
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
    std::size_t first = 0;
    for (std::size_t r = 0; r < rowEnds.size(); ++r) {
      rowClusters_.emplace_hint(
          rowClusters_.end(), rows_.rows()[r].y,
          std::vector<std::vector<int>>(
              std::make_move_iterator(clusters.begin() + first),
              std::make_move_iterator(clusters.begin() + rowEnds[r])));
      first = rowEnds[r];
    }
    stats_.lastClusterCount = clusters.size();
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
  if (classReady_[cls]) return;
  try {
    computeClassAccess(static_cast<std::size_t>(cls));
  } catch (...) {
    // Leave the class to be analyzed again by the next mutation that needs
    // it.
    classes_[cls] = ClassAccess{};
    classReady_[cls] = 0;
    throw;
  }
}

template <typename Edit, typename Undo>
void OracleSession::editGeometry(int instIdx, Edit&& edit, Undo&& undo) {
  // Until the mutation completes, the stored failed-pin verdicts are not
  // backed by a complete change record.
  const bool track = verdictsValid_;
  verdictsValid_ = false;
  if (track) changedBoxes_.push_back(footprint(instIdx, chosen_[instIdx]));
  std::vector<geom::Coord> rowYs;
  rows_.erase(*design_, instIdx, rowYs);
  edit();
  rows_.insert(*design_, instIdx, rowYs);
  index_.update(instIdx);
  try {
    ensureClassAccess(index_.classOf(instIdx));
  } catch (...) {
    std::vector<geom::Coord> ignored;
    rows_.erase(*design_, instIdx, ignored);
    undo();
    rows_.insert(*design_, instIdx, ignored);
    index_.update(instIdx);
    designRevision_ = design_->revision();
    throw;
  }
  const int touched[] = {instIdx};
  recomputeAfterMutation(touched, rowYs, track);
  if (!track) return;
  changedBoxes_.push_back(footprint(instIdx, chosen_[instIdx]));
  verdictsValid_ = true;
}

void OracleSession::moveInstance(int instIdx, geom::Point newOrigin) {
  requireMutable();
  const geom::Point oldOrigin = design_->instances.at(instIdx).origin;
  editGeometry(
      instIdx, [&] { mutableDesign_->moveInstance(instIdx, newOrigin); },
      [&] { mutableDesign_->moveInstance(instIdx, oldOrigin); });
}

void OracleSession::setOrient(int instIdx, geom::Orient orient) {
  requireMutable();
  const geom::Orient oldOrient = design_->instances.at(instIdx).orient;
  editGeometry(
      instIdx, [&] { mutableDesign_->setInstanceOrient(instIdx, orient); },
      [&] { mutableDesign_->setInstanceOrient(instIdx, oldOrient); });
}

int OracleSession::addInstance(db::Instance inst) {
  requireMutable();
  // Instance indices of the evaluation's synthetic nets shift: the next
  // failedPins() re-checks every pin.
  verdictsValid_ = false;
  const int idx = mutableDesign_->addInstance(std::move(inst));
  std::vector<geom::Coord> rowYs;
  rows_.insert(*design_, idx, rowYs);
  index_.add(idx);
  chosen_.push_back(-1);
  try {
    ensureClassAccess(index_.classOf(idx));
  } catch (...) {
    std::vector<geom::Coord> ignored;
    rows_.erase(*design_, idx, ignored);
    index_.remove(idx);
    mutableDesign_->removeInstance(idx);
    chosen_.pop_back();
    designRevision_ = design_->revision();
    throw;
  }
  const int touched[] = {idx};
  recomputeAfterMutation(touched, rowYs, false);
  return idx;
}

void OracleSession::removeInstance(int instIdx) {
  requireMutable();
  verdictsValid_ = false;
  std::vector<geom::Coord> rowYs;
  rows_.erase(*design_, instIdx, rowYs);
  index_.remove(instIdx);
  mutableDesign_->removeInstance(instIdx);
  rows_.renumberAfterRemove(instIdx);
  chosen_.erase(chosen_.begin() + instIdx);
  // Clusters that contained the instance lose their identity entirely (the
  // survivors' abutment changed, so their old DP result must not be reused
  // under the remapped member list); all other stored clusters renumber.
  for (auto& [y, runs] : rowClusters_) {
    for (std::vector<int>& cluster : runs) {
      if (std::find(cluster.begin(), cluster.end(), instIdx) !=
          cluster.end()) {
        cluster.clear();
        continue;
      }
      for (int& m : cluster) {
        if (m > instIdx) --m;
      }
    }
  }
  recomputeAfterMutation({}, rowYs, false);
}

std::size_t OracleSession::runOf(geom::Coord y, int inst) const {
  const std::vector<std::vector<int>>& runs = rowClusters_.at(y);
  for (std::size_t k = 0; k < runs.size(); ++k) {
    if (std::find(runs[k].begin(), runs[k].end(), inst) != runs[k].end()) {
      return k;
    }
  }
  throw std::logic_error("OracleSession: instance missing from its row");
}

void OracleSession::recomputeAfterMutation(std::span<const int> touched,
                                           std::vector<geom::Coord>& rowYs,
                                           bool track) {
  PAO_TRACE_SCOPE("session.mutation");
  ++stats_.mutations;
  PAO_COUNTER_INC("pao.session.mutations");
  designRevision_ = design_->revision();
  std::sort(rowYs.begin(), rowYs.end());
  rowYs.erase(std::unique(rowYs.begin(), rowYs.end()), rowYs.end());
  stats_.lastRowsSplit = rowYs.size();
  PAO_COUNTER_ADD("pao.session.rows_split", rowYs.size());
  if (cfg_.legacyMode) {
    trivialSelection();
    return;
  }

  // Re-split the touched rows. A run is dirty when it is not one of its
  // row's old runs or holds a touched instance. A cluster is named by its
  // (row y, run index); in that order the clusters are in pinning order.
  using ClusterId = std::pair<geom::Coord, std::size_t>;
  std::vector<ClusterId> seeds;
  std::size_t built = 0;
  for (const geom::Coord y : rowYs) {
    std::vector<std::vector<int>> old;
    if (const auto it = rowClusters_.find(y); it != rowClusters_.end()) {
      old = std::move(it->second);
      rowClusters_.erase(it);
    }
    stats_.lastClusterCount -= old.size();
    const db::RowIndex::Row* row = rows_.find(y);
    if (row == nullptr) continue;
    std::sort(old.begin(), old.end());
    std::vector<std::vector<int>>& runs = rowClusters_[y];
    splitRow(*design_, *row, runs);
    built += runs.size();
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const bool fresh =
          !std::binary_search(old.begin(), old.end(), runs[k]);
      const bool hit = std::any_of(
          runs[k].begin(), runs[k].end(), [&](int inst) {
            return std::find(touched.begin(), touched.end(), inst) !=
                   touched.end();
          });
      if (fresh || hit) seeds.push_back({y, k});
    }
  }
  stats_.lastClusterCount += built;
  PAO_COUNTER_ADD("pao.step3.clusters_built", built);

  // Carry the multi-height pinning closure forward in cluster order: a
  // cluster sharing an instance with an earlier dirty cluster is dirty too.
  // Every cluster found that way lies in a higher row than the one that
  // found it, so the queue pops in cluster order and repeats pop together.
  std::priority_queue<ClusterId, std::vector<ClusterId>, std::greater<>>
      queue(std::greater<>{}, std::move(seeds));
  std::vector<ClusterId> dirty;
  while (!queue.empty()) {
    const ClusterId id = queue.top();
    queue.pop();
    if (!dirty.empty() && dirty.back() == id) continue;
    dirty.push_back(id);
    for (const int inst : rowClusters_.at(id.first)[id.second]) {
      const geom::Coord top = design_->instances[inst].bbox().yhi;
      for (const db::RowIndex::Row& row : rows_.rowsIn(id.first + 1, top)) {
        queue.push({row.y, runOf(row.y, inst)});
      }
    }
  }

  // Reset the choice of instances that appear only in dirty clusters; an
  // instance shared with a clean cluster keeps that cluster's (earlier, and
  // unchanged) decision as a pin for the re-run.
  std::vector<std::vector<int>> dirtyClusters;
  dirtyClusters.reserve(dirty.size());
  std::vector<std::pair<int, int>> before;  // (instance, old pattern)
  for (const auto& [y, k] : dirty) {
    const std::vector<int>& cluster = rowClusters_.at(y)[k];
    dirtyClusters.push_back(cluster);
    for (const int inst : cluster) {
      const geom::Rect bbox = design_->instances[inst].bbox();
      const auto clean = [&](const db::RowIndex::Row& r) {
        const ClusterId other{r.y, r.y == y ? k : runOf(r.y, inst)};
        return !std::binary_search(dirty.begin(), dirty.end(), other);
      };
      if (std::ranges::any_of(rows_.rowsIn(bbox.ylo, bbox.yhi), clean)) {
        continue;
      }
      // Its own row's cluster comes first in order: record the old pattern
      // there, before any reset.
      if (track && y == bbox.ylo &&
          std::find(touched.begin(), touched.end(), inst) == touched.end()) {
        before.push_back({inst, chosen_[inst]});
      }
      chosen_[inst] = -1;
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
  finishSelectionPass();
  PAO_COUNTER_ADD("pao.session.dirty_clusters", dirtyClusters.size());

  // An instance whose pattern the re-run changed moved its vias.
  for (const auto& [inst, pattern] : before) {
    if (chosen_[inst] == pattern) continue;
    changedBoxes_.push_back(footprint(inst, pattern));
    changedBoxes_.push_back(footprint(inst, chosen_[inst]));
  }
}

geom::Rect OracleSession::footprint(int inst, int pattern) const {
  const db::Instance& instance = design_->instances[inst];
  geom::Rect box = instance.bbox();
  db::forEachPlacedShape(instance, [&](const geom::Rect& r, int, int) {
    box = box.merge(r);
  });
  const int cls = index_.classes().classOf[inst];
  if (cls < 0 || static_cast<std::size_t>(cls) >= classes_.size()) return box;
  const ClassAccess& ca = classes_[cls];
  for (std::size_t p = 0; p < ca.pinAps.size(); ++p) {
    const auto ap = placeChosenAp(ca, pattern, static_cast<int>(p),
                                  instance.origin);
    const db::ViaDef* via = ap ? ap->ap->primaryVia(*design_->tech) : nullptr;
    if (via == nullptr) continue;
    box = box.merge(via->botEncAt(ap->loc))
              .merge(via->cutAt(ap->loc))
              .merge(via->topEncAt(ap->loc));
  }
  return box;
}

FailedPinStats OracleSession::failedPins() {
  PAO_TRACE_SCOPE("eval.failed_pins");
  const bool incremental = verdictsValid_;
  verdictsValid_ = false;  // an exception below leaves a full re-check due
  const OracleResult res = snapshot();
  const FailedPinContext ctx(*design_, res);
  const std::vector<FailedPinContext::PinRef>& pins = ctx.pins();
  std::vector<int> recheck;
  if (!incremental || verdicts_.size() != pins.size()) {
    verdicts_.assign(pins.size(), PinVerdict{});
    recheck.resize(pins.size());
    std::iota(recheck.begin(), recheck.end(), 0);
  } else {
    // A pin is re-checked when a changed footprint intersects the reach of
    // its last check.
    std::vector<geom::GridIndex<char>::Entry> boxes;
    boxes.reserve(changedBoxes_.size());
    for (const geom::Rect& box : changedBoxes_) boxes.push_back({box, 0});
    const geom::GridIndex<char> changed(std::move(boxes));
    for (std::size_t i = 0; i < pins.size(); ++i) {
      bool reached = false;
      changed.queryIndices(verdicts_[i].reach,
                           [&](std::size_t) { reached = true; });
      if (reached) recheck.push_back(static_cast<int>(i));
    }
  }
  recheckFailedPins(ctx, *design_, res, recheck, verdicts_);
  changedBoxes_.clear();
  stats_.lastPinsRechecked = recheck.size();
  PAO_COUNTER_ADD("pao.eval.pins_rechecked", recheck.size());

  FailedPinStats stats;
  stats.totalPins = pins.size();
  for (const PinVerdict& v : verdicts_) stats.failedPins += v.failed ? 1 : 0;
  verdictsValid_ = true;
  return stats;
}

void OracleSession::finishSelectionPass() {
  const std::size_t pairChecks = selector_->numPairChecks();
  if (pairChecks > stats_.pairChecks) {
    PAO_COUNTER_ADD("pao.step3.pair_checks", pairChecks - stats_.pairChecks);
  }
  stats_.pairChecks = pairChecks;
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
