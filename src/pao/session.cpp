#include "pao/session.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <utility>

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

/// TrRte-style access for one class: legacy APs + first-AP pattern. The
/// primary path in legacyMode, and the keep-going fallback otherwise.
void legacyAccessInto(ClassAccess& ca, const InstContext& ctx) {
  ca.pinAps = LegacyApGenerator(ctx).generateAll();
  ca.patterns.push_back(firstApPattern(ca.pinAps));
  for (int i = 0; i < static_cast<int>(ca.pinAps.size()); ++i) {
    if (!ca.pinAps[i].empty()) ca.pinOrder.push_back(i);
  }
}

/// Thread-CPU seconds since construction.
struct CpuLap {
  double cpu0 = util::threadCpuSeconds();
  double seconds() const { return util::threadCpuSeconds() - cpu0; }
};

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

OracleSession::ClassTally OracleSession::analyzeClass(std::size_t c) {
  const db::UniqueInstance& ui = index_.classes().classes[c];
  if (ui.members.empty()) return {};  // nothing placed; stays un-analyzed
  ClassAccess& ca = classes_[c];
  classReady_[c] = 1;
  if (ui.master->signalPinIndices().empty()) return {};  // fillers etc.

  ClassTally tally;
  if (cache_ != nullptr && !cfg_.legacyMode) {
    std::lock_guard<std::mutex> lock(cacheMu_);
    if (const ClassAccess* hit = cache_->find(ui)) {
      ca = *hit;  // stored origin-relative, same as the session convention
      ++stats_.cacheHits;
      tally.cacheHit = true;
      return tally;
    }
    tally.cacheMiss = true;
  }

  const InstContext ctx(*design_, ui);
  PAO_TRACE_SCOPE("oracle.class_access");
  // Step 1 is access point generation (the legacy generator, first-AP
  // pattern included, in legacyMode and on a keep-going fallback); step 2
  // is the pattern DP.
  std::optional<DegradedEvent> event;
  try {
    // The fault point models "this class's Steps 1-2 analysis blew up";
    // legacyMode has no deeper fallback to degrade to, so it stays strict.
    if (!cfg_.legacyMode) PAO_FAULT_INJECT("oracle.class_access");
    const CpuLap s1;
    if (cfg_.legacyMode) {
      legacyAccessInto(ca, ctx);
      tally.step1 = s1.seconds();
    } else {
      ApGenConfig apCfg = cfg_.apGen;
      // Macro (block) pins admit planar access: via access is only
      // mandatory for standard cells (paper footnote 1).
      if (ui.master->cls == db::MasterClass::kBlock) apCfg.requireVia = false;
      ca.pinAps = AccessPointGenerator(ctx, apCfg).generateAll();
      tally.step1 = s1.seconds();
      const CpuLap s2;
      PatternGenerator gen(ctx, ca.pinAps, cfg_.patternGen);
      ca.patterns = gen.run();
      ca.pinOrder = gen.pinOrder();
      tally.step2 = s2.seconds();
      tally.generatedAps = true;
    }
  } catch (const std::exception& e) {
    if (!cfg_.keepGoing || cfg_.legacyMode) throw;
    event = DegradedEvent{"class_fallback", e.what(), static_cast<int>(c)};
    ca = ClassAccess{};
    try {
      const CpuLap fallback;
      legacyAccessInto(ca, ctx);
      tally.step1 += fallback.seconds();
    } catch (const std::exception& e2) {
      // Even the fallback failed: the class keeps empty access (its pins
      // count as failed) but the run continues.
      ca = ClassAccess{};
      event = DegradedEvent{"class_failed", e2.what(), static_cast<int>(c)};
    }
  }
  tally.built = true;

  // Normalize to origin-relative so the entry is placement-independent.
  ca = AccessCache::translate(
      ca, geom::Point{0, 0} - design_->instances[ui.representative].origin);

  std::lock_guard<std::mutex> lock(cacheMu_);
  // A degraded class result must never poison the cross-run cache: a later
  // fault-free run would silently inherit the fallback access.
  if (cache_ != nullptr && !cfg_.legacyMode && !event) cache_->store(ui, ca);
  if (event) degraded_.push_back(std::move(*event));
  ++stats_.classBuilds;
  return tally;
}

void OracleSession::publishClassTally(std::size_t c,
                                      const ClassTally& tally) const {
  if (tally.cacheHit) PAO_COUNTER_INC("pao.oracle.cache_hits");
  if (tally.cacheMiss) PAO_COUNTER_INC("pao.oracle.cache_misses");
  if (tally.built) PAO_COUNTER_INC("pao.oracle.class_builds");
  const std::vector<std::vector<AccessPoint>>& pinAps = classes_[c].pinAps;
  if (!tally.generatedAps || pinAps.empty()) return;
  [[maybe_unused]] std::size_t aps = 0;
  for (const std::vector<AccessPoint>& pin : pinAps) {
    aps += pin.size();
    PAO_HISTOGRAM_OBSERVE("pao.step1.aps_per_pin", pin.size());
  }
  PAO_COUNTER_ADD("pao.step1.pins_analyzed", pinAps.size());
  PAO_COUNTER_ADD("pao.step1.aps_generated", aps);
}

void OracleSession::buildAll() {
  PAO_TRACE_SCOPE("oracle.build");
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t numClasses = index_.classes().classes.size();
  classes_.assign(numClasses, ClassAccess{});
  classReady_.assign(numClasses, 0);

  // The whole flow runs as ONE job graph (ROADMAP item 2): one node per
  // class runs its Steps 1-2, and each cluster a Step-3 DP node depending
  // only on its member classes' nodes plus the same-instance predecessor
  // clusters (clusterDeps). A cluster whose classes finished early
  // therefore overlaps other classes' Steps 1-2 — there is no barrier
  // between the phases. Class nodes come first, in class order, so a
  // strict-mode failure rethrows the lowest class's exception. The legacy
  // baseline adds no cluster nodes and runs the trivial selection after the
  // graph. Every node writes only its own slot (classTally, tallies_);
  // the slots are summed and published once the graph has run.
  util::JobGraph graph;
  std::vector<util::JobId> classNode(numClasses);
  std::vector<ClassTally> classTally(numClasses);
  for (std::size_t c = 0; c < numClasses; ++c) {
    classNode[c] = graph.addJob(
        [this, c, &classTally] { classTally[c] = analyzeClass(c); });
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
    addClusterJobs(graph, clusters, classNode);
  }

  {
    PAO_TRACE_SCOPE("oracle.pipeline");
    graph.run(cfg_.numThreads);
  }

  stats_.graphJobs = graph.stats().jobs;
#if PAO_OBS_ENABLED
  graphProfile_ = graph.profile();
#endif
  if (cfg_.legacyMode) {
    trivialSelection();
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
    step3CpuSeconds_ = finishSelectionPass();
  }
  for (std::size_t c = 0; c < numClasses; ++c) {
    step1CpuSeconds_ += classTally[c].step1;
    step2CpuSeconds_ += classTally[c].step2;
    publishClassTally(c, classTally[c]);
  }
  wallSeconds_ = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  designRevision_ = design_->revision();
}

void OracleSession::addClusterJobs(
    util::JobGraph& graph, const std::vector<std::vector<int>>& clusters,
    std::span<const util::JobId> classNode) {
  selector_->addPairKeys(clusters);
  tallies_.assign(clusters.size(), ClusterTally{});
  const std::vector<std::vector<std::size_t>> cDeps = clusterDeps(clusters);
  const std::vector<int>& classOf = index_.classes().classOf;
  std::vector<util::JobId> ids(clusters.size());
  std::vector<util::JobId> deps;
  for (std::size_t k = 0; k < clusters.size(); ++k) {
    deps.clear();
    if (!classNode.empty()) {
      for (const int inst : clusters[k]) {
        const int cls = classOf[inst];
        if (cls >= 0) deps.push_back(classNode[static_cast<std::size_t>(cls)]);
      }
    }
    for (const std::size_t d : cDeps[k]) deps.push_back(ids[d]);
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    ids[k] = graph.addJob(
        [this, k, &clusters] {
          tallies_[k] = selector_->selectCluster(clusters[k], chosen_);
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
    publishClassTally(static_cast<std::size_t>(cls),
                      analyzeClass(static_cast<std::size_t>(cls)));
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
  recomputeAfterMutation(touched, rowYs);
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
  // Pin order and the evaluation's synthetic net ids shift: the next
  // failedPins() rebuilds its context and re-checks every pin.
  evaluated_.clear();
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
  recomputeAfterMutation(touched, rowYs);
  return idx;
}

void OracleSession::removeInstance(int instIdx) {
  requireMutable();
  evaluated_.clear();  // as in addInstance
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
  recomputeAfterMutation({}, rowYs);
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
                                           std::vector<geom::Coord>& rowYs) {
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
#if PAO_OBS_ENABLED
    if (graph.size() > 0) graphProfile_ = graph.profile();
#endif
  }
  stats_.lastDirtyClusters = dirtyClusters.size();
  finishSelectionPass();
  PAO_COUNTER_ADD("pao.session.dirty_clusters", dirtyClusters.size());
}

OracleSession::InstState OracleSession::stateOf(int inst) const {
  const db::Instance& instance = design_->instances[inst];
  return {instance.origin, instance.orient, index_.classOf(inst),
          chosen_[inst]};
}

geom::Rect OracleSession::footprint(int inst, const InstState& s) const {
  const db::Instance placed{"", design_->instances[inst].master, s.origin,
                            s.orient};
  geom::Rect box = placed.bbox();
  db::forEachPlacedShape(placed, [&](const geom::Rect& r, int, int) {
    box = box.merge(r);
  });
  if (s.cls < 0) return box;
  const ClassAccess& ca = classes_[s.cls];
  for (std::size_t p = 0; p < ca.pinAps.size(); ++p) {
    const auto ap =
        placeChosenAp(ca, s.pattern, static_cast<int>(p), s.origin);
    const db::ViaDef* via = ap ? ap->ap->primaryVia(*design_->tech) : nullptr;
    if (via != nullptr) box = box.merge(via->boxAt(ap->loc));
  }
  return box;
}

FailedPinStats OracleSession::failedPins() {
  PAO_TRACE_SCOPE("eval.failed_pins");
  // Taken out: an exception below leaves a rebuild and a full re-check due.
  const std::vector<InstState> last = std::exchange(evaluated_, {});
  std::unique_ptr<FailedPinContext> ctx = std::move(context_);
  std::vector<InstState> now(design_->instances.size());
  for (std::size_t i = 0; i < now.size(); ++i) {
    now[i] = stateOf(static_cast<int>(i));
  }
  // With a record for every instance, the context follows the instances
  // that differ from theirs; otherwise it is built afresh.
  const bool full = last.size() != now.size();
  std::vector<int> changed;
  for (std::size_t i = 0; !full && i < now.size(); ++i) {
    if (now[i] != last[i]) changed.push_back(static_cast<int>(i));
  }
  if (ctx != nullptr && !full) {
    ctx->setView(view());
    for (const int i : changed) {
      if (!ctx->update(i)) {
        ctx.reset();
        break;
      }
    }
  }
  if (ctx == nullptr || full) {
    ctx = std::make_unique<FailedPinContext>(*design_, view(), rows_);
  }
  const std::vector<FailedPinContext::PinRef>& pins = ctx->pins();
  std::vector<int> recheck;
  if (full || verdicts_.size() != pins.size()) {
    verdicts_.assign(pins.size(), PinVerdict{});
    recheck.resize(pins.size());
    std::iota(recheck.begin(), recheck.end(), 0);
  } else if (!changed.empty()) {
    // An instance that differs from its record changed what a check can
    // see within its old footprint and its new one; a pin is re-checked
    // when either intersects the reach of its last check.
    std::vector<geom::GridIndex<char>::Entry> boxes;
    for (const int i : changed) {
      boxes.push_back({footprint(i, last[i]), 0});
      boxes.push_back({footprint(i, now[i]), 0});
    }
    const geom::GridIndex<char> reached(std::move(boxes));
    for (std::size_t i = 0; i < pins.size(); ++i) {
      bool hit = false;
      reached.queryIndices(verdicts_[i].reach, [&](std::size_t) { hit = true; });
      if (hit) recheck.push_back(static_cast<int>(i));
    }
  }
  recheckFailedPins(*ctx, recheck, verdicts_);
  stats_.lastPinsRechecked = recheck.size();
  PAO_COUNTER_ADD("pao.eval.pins_rechecked", recheck.size());

  FailedPinStats stats;
  stats.totalPins = pins.size();
  for (const PinVerdict& v : verdicts_) stats.failedPins += v.failed ? 1 : 0;
  context_ = std::move(ctx);
  evaluated_ = std::move(now);
  return stats;
}

double OracleSession::finishSelectionPass() {
  const std::size_t pairChecks = selector_->numPairChecks();
  if (pairChecks > stats_.pairChecks) {
    PAO_COUNTER_ADD("pao.step3.pair_checks", pairChecks - stats_.pairChecks);
  }
  stats_.pairChecks = pairChecks;
  std::size_t dpRuns = 0;
  std::size_t fallbacks = 0;
  double cpu = 0;
  for (const ClusterTally& t : tallies_) {
    if (t.ranDp) {
      ++dpRuns;
      PAO_HISTOGRAM_OBSERVE("pao.step3.cluster_size", t.activeSize);
    }
    fallbacks += t.fellBack ? 1 : 0;
    cpu += t.cpuSeconds;
  }
  tallies_ = {};  // one slot per cluster: not kept past its pass
  stats_.clusterDpRuns += dpRuns;
  // A zero add would still register the metric: publish only what happened.
  if (dpRuns > 0) PAO_COUNTER_ADD("pao.step3.cluster_dp_runs", dpRuns);
  if (fallbacks > 0) PAO_COUNTER_ADD("pao.step3.budget_fallbacks", fallbacks);
  if (selector_->budgetExpired()) {
    degraded_.push_back(
        {"step3_budget",
         std::to_string(fallbacks) +
             " cluster(s) committed best-so-far patterns on budget expiry",
         -1});
  }
  return cpu;
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
  // Canonical order: analyzeClass appends in worker-completion order,
  // which is schedule-dependent under numThreads > 1.
  std::sort(r.degraded.begin(), r.degraded.end(),
            [](const DegradedEvent& a, const DegradedEvent& b) {
              return std::tie(a.cls, a.kind, a.detail) <
                     std::tie(b.cls, b.kind, b.detail);
            });
  r.wallSeconds = wallSeconds_;
  r.step1CpuSeconds = step1CpuSeconds_;
  r.step2CpuSeconds = step2CpuSeconds_;
  r.step3CpuSeconds = step3CpuSeconds_;
  return r;
}

}  // namespace pao::core
