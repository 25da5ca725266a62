#include "db/design.hpp"

namespace pao::db {

bool TrackPattern::onTrack(Coord v) const {
  if (step <= 0 || count <= 0) return false;
  if (v < start) return false;
  const Coord d = v - start;
  return d % step == 0 && d / step < count;
}

std::vector<Coord> TrackPattern::coordsIn(Coord lo, Coord hi) const {
  std::vector<Coord> out;
  if (step <= 0 || count <= 0) return out;
  // First track index at or above lo.
  Coord i = lo <= start ? 0 : (lo - start + step - 1) / step;
  for (; i < count; ++i) {
    const Coord c = start + i * step;
    if (c > hi) break;
    out.push_back(c);
  }
  return out;
}

int Design::findInstance(std::string_view instName) const {
  return instByName_.find(instName, [this](int i) { return nameOf(i); });
}

std::vector<const TrackPattern*> Design::tracks(int layer, Dir axis) const {
  std::vector<const TrackPattern*> out;
  for (const TrackPattern& tp : trackPatterns) {
    if (tp.layer == layer && tp.axis == axis) out.push_back(&tp);
  }
  return out;
}

std::size_t Design::numNetInstTerms() const {
  std::size_t n = 0;
  for (const Net& net : nets) {
    for (const NetTerm& t : net.terms) {
      if (!t.isIo()) ++n;
    }
  }
  return n;
}

void Design::buildInstanceIndex() {
  instByName_.reset(instances.size());
  const auto names = [this](int i) { return nameOf(i); };
  for (int i = 0; i < static_cast<int>(instances.size()); ++i) {
    instByName_.insert(instances[i].name, i, names);
  }
}

void Design::moveInstance(int idx, geom::Point newOrigin) {
  instances.at(idx).origin = newOrigin;
  ++revision_;
}

void Design::setInstanceOrient(int idx, geom::Orient orient) {
  instances.at(idx).orient = orient;
  ++revision_;
}

int Design::addInstance(Instance inst) {
  const int idx = static_cast<int>(instances.size());
  instances.push_back(std::move(inst));
  instByName_.insert(instances.back().name, idx,
                     [this](int i) { return nameOf(i); });
  ++revision_;
  return idx;
}

void Design::removeInstance(int idx) {
  instances.erase(instances.begin() + idx);
  for (Net& net : nets) {
    std::erase_if(net.terms, [idx](const NetTerm& t) {
      return !t.isIo() && t.instIdx == idx;
    });
    for (NetTerm& t : net.terms) {
      if (t.instIdx > idx) --t.instIdx;
    }
  }
  buildInstanceIndex();
  ++revision_;
}

}  // namespace pao::db
