// Reference Step 3 (see reference.hpp): ClusterSelector's memoized pair
// check and cluster DP as they were before the pair-verdict table, run
// serially. The budget, fault point, arena scratch and instrumentation are
// left out; none of them changes a result with an unlimited budget.
#include <algorithm>
#include <limits>
#include <map>
#include <tuple>

#include "reference.hpp"

namespace pao::reference {

namespace {

using core::AccessPoint;
using core::ClassAccess;

constexpr long long kInf = std::numeric_limits<long long>::max() / 4;

constexpr int pairNet(int side, int pin) { return 2 * pin + side; }

class Selector {
 public:
  Selector(const db::Design& design, const db::UniqueInstances& unique,
           const std::vector<ClassAccess>& classes,
           const core::ClusterSelectConfig& cfg)
      : design_(&design),
        unique_(&unique),
        classes_(&classes),
        cfg_(cfg),
        pairEngine_(*design.tech) {}

  void selectCluster(const std::vector<int>& cluster,
                     std::vector<int>& chosen);
  std::size_t numPairChecks() const { return numPairChecks_; }

 private:
  struct PlacedAp {
    const AccessPoint* ap = nullptr;
    geom::Point loc;
    int net = 0;
  };
  bool patternsCompatible(int instA, int patA, int instB, int patB);
  std::vector<drc::Shape> edgeShapes(int inst, int side, geom::Coord boundaryX,
                                     geom::Coord halo) const;
  std::vector<PlacedAp> boundaryAps(int inst, int pat, int side) const;

  const db::Design* design_;
  const db::UniqueInstances* unique_;
  const std::vector<ClassAccess>* classes_;
  core::ClusterSelectConfig cfg_;
  drc::DrcEngine pairEngine_;
  std::map<std::tuple<int, int, int, int, geom::Coord, geom::Coord>, bool>
      pairCache_;
  std::size_t numPairChecks_ = 0;
};

std::vector<Selector::PlacedAp> Selector::boundaryAps(int inst, int pat,
                                                      int side) const {
  std::vector<PlacedAp> out;
  const int cls = unique_->classOf[inst];
  if (cls < 0) return out;
  const ClassAccess& ca = (*classes_)[cls];
  if (pat < 0 || pat >= static_cast<int>(ca.patterns.size())) return out;
  const std::vector<int>& sig = unique_->classes[cls].master->signalPinIndices();
  const geom::Point origin = design_->instances[inst].origin;

  const auto add = [&](int pinPos) {
    const int apIdx = ca.patterns[pat].apIdx[pinPos];
    if (apIdx < 0) return;
    const AccessPoint& ap = ca.pinAps[pinPos][apIdx];
    out.push_back({&ap, ap.loc + origin, pairNet(side, sig[pinPos])});
  };

  if (ca.pinOrder.empty()) return out;
  if (cfg_.boundaryPinsOnly) {
    add(side == 0 ? ca.pinOrder.back() : ca.pinOrder.front());
  } else {
    for (const int pinPos : ca.pinOrder) add(pinPos);
  }
  return out;
}

std::vector<drc::Shape> Selector::edgeShapes(int inst, int side,
                                             geom::Coord boundaryX,
                                             geom::Coord halo) const {
  std::vector<drc::Shape> out;
  const db::Instance& instance = design_->instances[inst];
  const geom::Rect band{boundaryX - halo, instance.bbox().ylo - halo,
                        boundaryX + halo, instance.bbox().yhi + halo};
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
  return out;
}

bool Selector::patternsCompatible(int instA, int patA, int instB, int patB) {
  const int clsA = unique_->classOf[instA];
  const int clsB = unique_->classOf[instB];
  const geom::Point oa = design_->instances[instA].origin;
  const geom::Point ob = design_->instances[instB].origin;
  const auto key = std::make_tuple(clsA, patA, clsB, patB, ob.x - oa.x,
                                   ob.y - oa.y);
  const auto it = pairCache_.find(key);
  if (it != pairCache_.end()) return it->second;

  const geom::Coord boundaryX = design_->instances[instB].origin.x;
  geom::Coord halo = 0;
  for (const db::Layer& l : design_->tech->layers()) {
    halo = std::max(halo, drc::maxSpacingHalo(l) * 2);
  }
  const std::vector<drc::Shape> edgeA = edgeShapes(instA, 0, boundaryX, halo);
  const std::vector<drc::Shape> edgeB = edgeShapes(instB, 1, boundaryX, halo);

  bool clean = true;
  const std::vector<PlacedAp> left = boundaryAps(instA, patA, 0);
  const std::vector<PlacedAp> right = boundaryAps(instB, patB, 1);
  const db::Tech& tech = *design_->tech;
  const auto viaClean = [&](const PlacedAp& ap,
                            const std::vector<drc::Shape>& ownEdge,
                            const std::vector<drc::Shape>& otherEdge,
                            const PlacedAp* other) {
    if (ap.ap->primaryVia(tech) == nullptr) return true;
    std::vector<drc::Shape> extra = otherEdge;
    extra.insert(extra.end(), ownEdge.begin(), ownEdge.end());
    if (other != nullptr && other->ap->primaryVia(tech) != nullptr) {
      for (const drc::Shape& s : pairEngine_.viaShapes(
               *other->ap->primaryVia(tech), other->loc, other->net)) {
        extra.push_back(s);
      }
    }
    ++numPairChecks_;
    return pairEngine_.isViaClean(*ap.ap->primaryVia(tech), ap.loc, ap.net,
                                  extra);
  };
  for (const PlacedAp& a : left) {
    for (const PlacedAp& b : right) {
      if (!viaClean(a, edgeA, edgeB, &b) || !viaClean(b, edgeB, edgeA, &a)) {
        clean = false;
        break;
      }
    }
    if (!clean) break;
    if (right.empty() && !viaClean(a, edgeA, edgeB, nullptr)) clean = false;
  }
  if (left.empty()) {
    for (const PlacedAp& b : right) {
      if (!viaClean(b, edgeB, edgeA, nullptr)) {
        clean = false;
        break;
      }
    }
  }
  pairCache_.emplace(key, clean);
  return clean;
}

void Selector::selectCluster(const std::vector<int>& cluster,
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

  std::vector<int> active;
  for (int i = 0; i < n; ++i) {
    if (numPatterns(i) > 0) active.push_back(i);
  }
  if (active.empty()) return;

  const int an = static_cast<int>(active.size());
  std::vector<int> off(static_cast<std::size_t>(an) + 1, 0);
  for (int i = 0; i < an; ++i) off[i + 1] = off[i] + numPatterns(active[i]);
  std::vector<long long> cost(static_cast<std::size_t>(off[an]), kInf);
  std::vector<int> prev(static_cast<std::size_t>(off[an]), -1);
  const auto allowed = [&](int pos, int p) {
    const int pre = chosen[cluster[pos]];
    return pre < 0 || pre == p;
  };
  for (int p = 0; p < numPatterns(active[0]); ++p) {
    if (!allowed(active[0], p)) continue;
    cost[p] = patternCost(active[0], p);
  }
  for (int i = 1; i < an; ++i) {
    const int instB = cluster[active[i]];
    const int instA = cluster[active[i - 1]];
    const bool adjacent = active[i] == active[i - 1] + 1;
    for (int q = 0; q < numPatterns(active[i]); ++q) {
      if (!allowed(active[i], q)) continue;
      for (int p = 0; p < numPatterns(active[i - 1]); ++p) {
        if (cost[off[i - 1] + p] >= kInf) continue;
        long long ec = patternCost(active[i], q);
        if (adjacent && !patternsCompatible(instA, p, instB, q)) {
          ec += cfg_.drcCost;
        }
        if (cost[off[i - 1] + p] + ec < cost[off[i] + q]) {
          cost[off[i] + q] = cost[off[i - 1] + p] + ec;
          prev[off[i] + q] = p;
        }
      }
    }
  }

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
}

}  // namespace

std::vector<std::vector<int>> buildClusters(const db::Design& design) {
  std::vector<std::vector<int>> clusters;
  const db::RowIndex rows(design);
  for (const db::RowIndex::Row& row : rows.rows()) {
    core::splitRow(design, row, clusters);
  }
  return clusters;
}

ClusterSelection selectClusters(const db::Design& design,
                                const db::UniqueInstances& unique,
                                const std::vector<core::ClassAccess>& classes,
                                const core::ClusterSelectConfig& cfg) {
  Selector sel(design, unique, classes, cfg);
  ClusterSelection out;
  out.chosenPattern.assign(design.instances.size(), -1);
  for (const std::vector<int>& cluster : buildClusters(design)) {
    sel.selectCluster(cluster, out.chosenPattern);
  }
  out.pairChecks = sel.numPairChecks();
  return out;
}

}  // namespace pao::reference
