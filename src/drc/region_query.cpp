#include "drc/region_query.hpp"

namespace pao::drc {

RegionQuery::RegionQuery(int numLayers) : layers_(numLayers) {}

void RegionQuery::add(const Shape& s) {
  if (!accepts(s, numLayers())) return;
  layers_[s.layer].insert(s);
}

void RegionQuery::clear() {
  for (auto& g : layers_) g.clear();
}

}  // namespace pao::drc
