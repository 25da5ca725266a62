#include "db/lib.hpp"

namespace pao::db {

geom::Rect Pin::bbox() const {
  geom::Rect b;
  for (const PinShape& s : shapes) b = b.merge(s.rect);
  return b;
}

std::vector<geom::Rect> Pin::shapesOnLayer(int layer) const {
  std::vector<geom::Rect> out;
  for (const PinShape& s : shapes) {
    if (s.layer == layer) out.push_back(s.rect);
  }
  return out;
}

const Pin* Master::findPin(std::string_view pinName) const {
  for (const Pin& p : pins) {
    if (p.name == pinName) return &p;
  }
  return nullptr;
}

std::vector<int> Master::signalPinIndices() const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(pins.size()); ++i) {
    if (pins[i].isSignal()) out.push_back(i);
  }
  return out;
}

Master& Library::addMaster(std::string name) {
  auto m = std::make_unique<Master>();
  m->name = std::move(name);
  Master* raw = m.get();
  masters_.push_back(std::move(m));
  byName_[raw->name] = raw;
  return *raw;
}

const Master* Library::findMaster(std::string_view name) const {
  const auto it = byName_.find(std::string(name));
  return it == byName_.end() ? nullptr : it->second;
}

}  // namespace pao::db
