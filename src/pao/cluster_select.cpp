#include "pao/cluster_select.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/arena.hpp"
#include "util/cpu_time.hpp"
#include "util/fault.hpp"

namespace pao::core {

namespace {
constexpr long long kInf = std::numeric_limits<long long>::max() / 4;

/// Net id of master pin `pin` of the instance on `side` of the boundary in
/// one pair check. Ids only need to be distinct within that check, and a
/// via shares its id with its own pin bar.
constexpr int pairNet(int side, int pin) { return 2 * pin + side; }
}

void splitRow(const db::Design& design, const db::RowIndex::Row& row,
              std::vector<std::vector<int>>& out) {
  std::vector<int> cur;
  geom::Coord prevEnd = 0;
  for (const db::RowIndex::Entry& e : row.entries) {
    if (!cur.empty() && e.x > prevEnd) {
      out.push_back(std::move(cur));
      cur.clear();
    }
    cur.push_back(e.inst);
    prevEnd = design.instances[e.inst].bbox().xhi;
  }
  if (!cur.empty()) out.push_back(std::move(cur));
}

std::vector<std::vector<std::size_t>> clusterDeps(
    const std::vector<std::vector<int>>& clusters) {
  std::vector<std::vector<std::size_t>> deps(clusters.size());
  // lastCluster[inst]: the most recent earlier cluster containing inst.
  std::unordered_map<int, std::size_t> lastCluster;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (const int inst : clusters[c]) {
      const auto it = lastCluster.find(inst);
      if (it != lastCluster.end()) deps[c].push_back(it->second);
    }
    std::sort(deps[c].begin(), deps[c].end());
    deps[c].erase(std::unique(deps[c].begin(), deps[c].end()), deps[c].end());
    for (const int inst : clusters[c]) lastCluster[inst] = c;
  }
  return deps;
}

ClusterSelector::ClusterSelector(const db::Design& design,
                                 const db::UniqueInstances& unique,
                                 const std::vector<ClassAccess>& classes,
                                 ClusterSelectConfig cfg)
    : design_(&design),
      unique_(&unique),
      classes_(&classes),
      cfg_(cfg),
      pairEngine_(*design.tech) {
  if (cfg_.drcCost < 0) {
    throw std::invalid_argument("ClusterSelectConfig::drcCost must be >= 0");
  }
  for (const db::Layer& l : design.tech->layers()) {
    halo_ = std::max(halo_, drc::maxSpacingHalo(l) * 2);
  }
}

ClusterSelector::PairKey ClusterSelector::pairKey(int instA, int instB) const {
  const geom::Point oa = design_->instances[instA].origin;
  const geom::Point ob = design_->instances[instB].origin;
  return {unique_->classOf[instA], unique_->classOf[instB], ob.x - oa.x,
          ob.y - oa.y};
}

void ClusterSelector::addPairKeys(
    const std::vector<std::vector<int>>& clusters) {
  for (const std::vector<int>& cluster : clusters) {
    for (std::size_t i = 1; i < cluster.size(); ++i) {
      const PairKey key = pairKey(cluster[i - 1], cluster[i]);
      if (pairIndex_.emplace(key, pairSlots_.size()).second) {
        pairSlots_.emplace_back();
      }
    }
  }
}

void ClusterSelector::boundaryAps(int inst, int pat, int side,
                                  util::ArenaVector<PlacedAp>& out) const {
  out.clear();
  const int cls = unique_->classOf[inst];
  if (cls < 0) return;
  const ClassAccess& ca = (*classes_)[cls];
  if (pat < 0 || pat >= static_cast<int>(ca.patterns.size())) return;
  const std::vector<int>& sig = unique_->classes[cls].master->signalPinIndices();
  const geom::Point origin = design_->instances[inst].origin;

  const auto add = [&](int pinPos) {
    const int apIdx = ca.patterns[pat].apIdx[pinPos];
    if (apIdx < 0) return;
    const AccessPoint& ap = ca.pinAps[pinPos][apIdx];
    out.push_back({&ap, ap.loc + origin, pairNet(side, sig[pinPos])});
  };

  if (ca.pinOrder.empty()) return;
  if (cfg_.boundaryPinsOnly) {
    add(side == 0 ? ca.pinOrder.back() : ca.pinOrder.front());
  } else {
    for (const int pinPos : ca.pinOrder) add(pinPos);
  }
}

void ClusterSelector::edgeShapes(int inst, int side, geom::Coord boundaryX,
                                 util::ArenaVector<drc::Shape>& out) const {
  const db::Instance& instance = design_->instances[inst];
  const geom::Rect band{boundaryX - halo_, instance.bbox().ylo - halo_,
                        boundaryX + halo_, instance.bbox().yhi + halo_};
  db::forEachPlacedShape(
      instance, [&](const geom::Rect& r, int layer, int pin) {
        if (!r.intersects(band)) return;
        if (pin < 0) {
          out.push_back({r, layer, drc::Shape::kObsNet,
                         drc::ShapeKind::kObstruction, true});
          return;
        }
        const int net = instance.master->pins[pin].isSupply()
                            ? drc::Shape::kObsNet
                            : pairNet(side, pin);
        out.push_back({r, layer, net, drc::ShapeKind::kPin, true});
      });
}

bool ClusterSelector::probePair(int instA, int instB, int p, int q,
                                util::ArenaVector<drc::Shape>& extra,
                                std::size_t& checks) const {
  // Only the up-vias of boundary access points participate (Sec. III-C);
  // each one is checked against the facing via and the fixed shapes of both
  // instances near the shared cell edge: its own cell's come along (its own
  // pin bar shares the via's net id) so merged-component rules see the real
  // pin geometry; conflicts against the own cell were cleared in Step 2.
  util::ArenaVector<PlacedAp> left;
  util::ArenaVector<PlacedAp> right;
  boundaryAps(instA, p, 0, left);
  boundaryAps(instB, q, 1, right);
  const db::Tech& tech = *design_->tech;
  const std::size_t edges = extra.size();
  const auto viaClean = [&](const PlacedAp& ap, const PlacedAp* other) {
    if (ap.ap->primaryVia(tech) == nullptr) return true;
    if (other != nullptr && other->ap->primaryVia(tech) != nullptr) {
      for (const drc::Shape& s : pairEngine_.viaShapes(
               *other->ap->primaryVia(tech), other->loc, other->net)) {
        extra.push_back(s);
      }
    }
    ++checks;
    const bool clean = pairEngine_.isViaClean(*ap.ap->primaryVia(tech),
                                              ap.loc, ap.net, extra);
    extra.resize(edges);
    return clean;
  };
  for (const PlacedAp& a : left) {
    for (const PlacedAp& b : right) {
      if (!viaClean(a, &b) || !viaClean(b, &a)) return false;
    }
    // A boundary via may clip the neighbor's fixed shapes even when the
    // neighbor has no via nearby.
    if (right.empty() && !viaClean(a, nullptr)) return false;
  }
  if (left.empty()) {
    for (const PlacedAp& b : right) {
      if (!viaClean(b, nullptr)) return false;
    }
  }
  return true;
}

void ClusterSelector::armBudget() {
  expired_.store(false, std::memory_order_relaxed);
  budgetArmed_ = cfg_.budgetSeconds > 0;
  if (budgetArmed_) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(cfg_.budgetSeconds));
  }
}

bool ClusterSelector::deadlineExpired() {
  if (expired_.load(std::memory_order_relaxed)) return true;
  bool hit = PAO_FAULT_POINT("step3.deadline");
  if (!hit && budgetArmed_ && std::chrono::steady_clock::now() >= deadline_) {
    hit = true;
  }
  if (hit) expired_.store(true, std::memory_order_relaxed);
  return hit;
}

void ClusterSelector::fallbackSelect(const std::vector<int>& cluster,
                                     std::vector<int>& chosen) {
  for (const int inst : cluster) {
    if (chosen[inst] >= 0) continue;  // pinned by an earlier cluster
    const int cls = unique_->classOf[inst];
    if (cls < 0) continue;
    const std::vector<AccessPattern>& pats = (*classes_)[cls].patterns;
    int best = -1;
    long long bestCost = kInf;
    for (int p = 0; p < static_cast<int>(pats.size()); ++p) {
      if (pats[p].cost < bestCost) {
        bestCost = pats[p].cost;
        best = p;
      }
    }
    chosen[inst] = best;
  }
}

ClusterTally ClusterSelector::selectCluster(const std::vector<int>& cluster,
                                            std::vector<int>& chosen) {
  const int n = static_cast<int>(cluster.size());

  const auto numPatterns = [&](int pos) {
    const int cls = unique_->classOf[cluster[pos]];
    return cls < 0 ? 0
                   : static_cast<int>((*classes_)[cls].patterns.size());
  };
  const auto patternCost = [&](int pos, int p) {
    const int cls = unique_->classOf[cluster[pos]];
    return (*classes_)[cls].patterns[p].cost;
  };

  // All DP state is per-job scratch in the worker's arena: the active list,
  // the state offsets, and one flat cost/prev pair ((instance, pattern)
  // vertices at [off[i], off[i+1])) instead of a vector-of-vectors.
  util::ArenaScope scratch(util::scratchArena());

  // Instances without patterns (fillers, pinless cells) are transparent:
  // they keep -1 and the DP skips over them. Compact the cluster first.
  util::ArenaVector<int> active;
  active.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (numPatterns(i) > 0) active.push_back(i);
  }
  ClusterTally tally;
  if (active.empty()) return tally;
  if (deadlineExpired()) {
    // Budget spent: commit best-so-far instead of running the DP. Not
    // counted as a DP run.
    fallbackSelect(cluster, chosen);
    tally.fellBack = true;
    return tally;
  }
  tally.ranDp = true;
  tally.activeSize = active.size();
  PAO_TRACE_SCOPE("step3.cluster_dp");
  const double cpu0 = util::threadCpuSeconds();

  const int an = static_cast<int>(active.size());
  util::ArenaVector<int> off(static_cast<std::size_t>(an) + 1, 0);
  for (int i = 0; i < an; ++i) off[i + 1] = off[i] + numPatterns(active[i]);
  util::ArenaVector<long long> cost(static_cast<std::size_t>(off[an]), kInf);
  util::ArenaVector<int> prev(static_cast<std::size_t>(off[an]), -1);
  // A pattern already chosen by an earlier (multi-height) cluster pass is
  // pinned: the DP may only use that vertex for the instance.
  const auto allowed = [&](int pos, int p) {
    const int pre = chosen[cluster[pos]];
    return pre < 0 || pre == p;
  };
  for (int p = 0; p < numPatterns(active[0]); ++p) {
    if (!allowed(active[0], p)) continue;
    cost[p] = patternCost(active[0], p);
  }
  for (int i = 1; i < an; ++i) {
    // Scratch of one boundary: the walk order and the probe context.
    util::ArenaScope boundaryScratch(util::scratchArena());
    const int instA = cluster[active[i - 1]];
    const int instB = cluster[active[i]];
    const int numQ = numPatterns(active[i]);
    const long long* costA = &cost[off[i - 1]];
    // The predecessor's reachable patterns, cheapest first, ties by index.
    util::ArenaVector<int> order;
    for (int p = 0; p < numPatterns(active[i - 1]); ++p) {
      if (costA[p] < kInf) order.push_back(p);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return std::pair(costA[a], a) < std::pair(costA[b], b);
    });
    // Patterns only interact across a shared cell edge; when an inactive
    // (pattern-less) instance separates them, every pair is clean. Any
    // pair with the abutment's key reads and fills its slot the same way.
    std::atomic<std::uint8_t>* verdict = nullptr;
    if (active[i] == active[i - 1] + 1) {
      PairSlot& slot = pairSlots_[pairIndex_.at(pairKey(instA, instB))];
      std::call_once(slot.sized, [&] {
        slot.verdict = std::make_unique<std::atomic<std::uint8_t>[]>(
            static_cast<std::size_t>(numPatterns(active[i - 1]) * numQ));
      });
      verdict = slot.verdict.get();
    }
    // Both instances' edge shapes, gathered on the first unknown entry.
    util::ArenaVector<drc::Shape> extra;
    bool edgesGathered = false;
    const auto clean = [&](int p, int q) {
      if (verdict == nullptr) return true;
      std::atomic<std::uint8_t>& entry = verdict[p * numQ + q];
      // The byte is the whole verdict, so no ordering is needed.
      std::uint8_t seen = entry.load(std::memory_order_relaxed);
      if (seen == kUnknown) {
        if (!edgesGathered) {
          const geom::Coord boundaryX = design_->instances[instB].origin.x;
          edgeShapes(instA, 0, boundaryX, extra);
          edgeShapes(instB, 1, boundaryX, extra);
          edgesGathered = true;
        }
        std::size_t checks = 0;
        const std::uint8_t mine =
            probePair(instA, instB, p, q, extra, checks) ? kClean : kDirty;
        // The DP that publishes the entry counts its probes; one that loses
        // the race reads the same verdict from `seen`.
        if (entry.compare_exchange_strong(seen, mine,
                                          std::memory_order_relaxed)) {
          tally.pairChecks += checks;
          seen = mine;
        }
      }
      return seen == kClean;
    };
    for (int q = 0; q < numQ; ++q) {
      if (!allowed(active[i], q)) continue;
      const long long costQ = patternCost(active[i], q);
      // drcCost >= 0 makes costA[p] + costQ a lower bound on the value
      // through p: once it passes the best value, or ties it at a higher
      // index, no later pattern of `order` can win.
      long long bestVal = kInf;
      int bestP = -1;
      for (const int p : order) {
        const long long bound = costA[p] + costQ;
        if (bound > bestVal || (bound == bestVal && p > bestP)) break;
        const long long val = bound + (clean(p, q) ? 0 : cfg_.drcCost);
        if (val < bestVal || (val == bestVal && p < bestP)) {
          bestVal = val;
          bestP = p;
        }
      }
      cost[off[i] + q] = bestVal;
      prev[off[i] + q] = bestP;
    }
  }

  // Trace back.
  int best = -1;
  long long bestCost = kInf;
  for (int q = 0; q < off[an] - off[an - 1]; ++q) {
    if (cost[off[an - 1] + q] < bestCost) {
      bestCost = cost[off[an - 1] + q];
      best = q;
    }
  }
  for (int i = an - 1; i >= 0 && best >= 0; --i) {
    chosen[cluster[active[i]]] = best;
    best = prev[off[i] + best];
  }
  tally.cpuSeconds = util::threadCpuSeconds() - cpu0;
  return tally;
}

}  // namespace pao::core
