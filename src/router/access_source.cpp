#include "router/access_source.hpp"

namespace pao::router {

using core::AccessPoint;
using geom::Point;

AccessSource::AccessSource(const db::Design& design, core::AccessView access,
                           AccessMode mode)
    : design_(&design), access_(access), mode_(mode) {
  buildCentroids();
}

void AccessSource::buildCentroids() {
  if (mode_ != AccessMode::kGreedyNearest) return;
  // Precompute, for every net-attached pin, the centroid of the other pins
  // of its net (the direction a greedy per-pin selector pulls toward).
  for (const db::Net& net : design_->nets) {
    std::vector<std::pair<std::pair<int, int>, Point>> members;
    geom::Coord sx = 0;
    geom::Coord sy = 0;
    for (const db::NetTerm& t : net.terms) {
      if (t.isIo()) {
        sx += design_->ioPins[t.ioPinIdx].rect.center().x;
        sy += design_->ioPins[t.ioPinIdx].rect.center().y;
        continue;
      }
      const db::Instance& inst = design_->instances[t.instIdx];
      const db::Master& master = *inst.master;
      // Map the master pin index to its signal-pin position.
      const std::vector<int> sig = master.signalPinIndices();
      int pos = -1;
      for (int i = 0; i < static_cast<int>(sig.size()); ++i) {
        if (sig[i] == t.pinIdx) pos = i;
      }
      const Point c = inst.transform().apply(
          master.pins[t.pinIdx].bbox().center());
      members.push_back({{t.instIdx, pos}, c});
      sx += c.x;
      sy += c.y;
    }
    const geom::Coord n = static_cast<geom::Coord>(net.terms.size());
    if (n == 0) continue;
    for (const auto& [key, c] : members) {
      if (key.second < 0) continue;
      centroid_[key] = Point{sx / n, sy / n};
    }
  }
}

std::optional<PinContact> AccessSource::fromAp(int instIdx,
                                               const AccessPoint& ap) const {
  if (ap.primaryVia(*design_->tech) == nullptr) return std::nullopt;
  return PinContact{ap.primaryVia(*design_->tech),
                    ap.loc + design_->instances[instIdx].origin};
}

std::optional<PinContact> AccessSource::contact(int instIdx,
                                                int sigPinPos) const {
  const int cls = access_.classOf(instIdx);
  if (cls < 0) return std::nullopt;
  const core::ClassAccess& ca = access_.access(cls);
  if (sigPinPos >= static_cast<int>(ca.pinAps.size()) ||
      ca.pinAps[sigPinPos].empty()) {
    return std::nullopt;
  }

  switch (mode_) {
    case AccessMode::kFirstAp:
      return fromAp(instIdx, ca.pinAps[sigPinPos].front());
    case AccessMode::kGreedyNearest: {
      const auto it = centroid_.find({instIdx, sigPinPos});
      const Point target =
          it != centroid_.end()
              ? it->second
              : design_->instances[instIdx].bbox().center();
      const Point origin = design_->instances[instIdx].origin;
      const AccessPoint* best = nullptr;
      geom::Coord bestDist = geom::kCoordMax;
      for (const AccessPoint& ap : ca.pinAps[sigPinPos]) {
        if (ap.primaryVia(*design_->tech) == nullptr) continue;
        const geom::Coord d = geom::manhattanDist(ap.loc + origin, target);
        if (d < bestDist) {
          bestDist = d;
          best = &ap;
        }
      }
      if (best == nullptr) return std::nullopt;
      return fromAp(instIdx, *best);
    }
    case AccessMode::kPattern: {
      const auto chosen = access_.chosenAp(*design_, instIdx, sigPinPos);
      if (!chosen || chosen->ap->primaryVia(*design_->tech) == nullptr) {
        return std::nullopt;
      }
      return PinContact{chosen->ap->primaryVia(*design_->tech), chosen->loc};
    }
  }
  return std::nullopt;
}

}  // namespace pao::router
