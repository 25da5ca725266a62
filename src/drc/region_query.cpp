#include "drc/region_query.hpp"

namespace pao::drc {

RegionQuery::RegionQuery(int numLayers) : layers_(numLayers) {}

void RegionQuery::add(const Shape& s) {
  if (!accepts(s, numLayers())) return;
  layers_[s.layer].insert(s);
  ++count_;
}

void RegionQuery::clear() {
  for (auto& g : layers_) g.clear();
  count_ = 0;
}

std::vector<Shape> RegionQuery::queryShapes(int layer,
                                            const geom::Rect& box) const {
  std::vector<Shape> out;
  query(layer, box, [&](const Shape& s) { out.push_back(s); });
  return out;
}

}  // namespace pao::drc
