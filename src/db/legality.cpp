#include "db/legality.hpp"

#include <algorithm>
#include <utility>

#include "geom/grid_index.hpp"

namespace pao::db {

std::string PlacementViolation::describe(const Design& design) const {
  std::string out;
  switch (kind) {
    case Kind::kOffDie: out = "off-die "; break;
    case Kind::kOffSite: out = "off-site "; break;
    case Kind::kOverlap: out = "overlap "; break;
    case Kind::kNoRow: out = "no-row "; break;
  }
  if (instA >= 0) out += design.instances[instA].name;
  if (instB >= 0) out += " / " + design.instances[instB].name;
  return out;
}

std::vector<PlacementViolation> checkPlacement(const Design& design) {
  std::vector<PlacementViolation> out;
  using Kind = PlacementViolation::Kind;

  // Row lookup by y (multi-height cells sit on a row like everyone else):
  // (y, index of the first row in design order at that y), sorted by y.
  std::vector<std::pair<Coord, int>> rowAtY;
  for (int r = 0; r < static_cast<int>(design.rows.size()); ++r) {
    rowAtY.emplace_back(design.rows[r].origin.y, r);
  }
  std::sort(rowAtY.begin(), rowAtY.end());
  rowAtY.erase(std::unique(rowAtY.begin(), rowAtY.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               rowAtY.end());

  geom::GridIndex<int> index(1 << 14);
  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const Instance& inst = design.instances[i];
    const geom::Rect bbox = inst.bbox();

    if (!design.dieArea.empty() && !design.dieArea.contains(bbox)) {
      out.push_back({Kind::kOffDie, i, -1});
    }

    if (!rowAtY.empty() && inst.master->cls != MasterClass::kBlock) {
      const auto it = std::lower_bound(
          rowAtY.begin(), rowAtY.end(), inst.origin.y,
          [](const std::pair<Coord, int>& e, Coord y) { return e.first < y; });
      const Row* row = it != rowAtY.end() && it->first == inst.origin.y
                           ? &design.rows[it->second]
                           : nullptr;
      if (row == nullptr) {
        out.push_back({Kind::kNoRow, i, -1});
      } else if (row->siteWidth > 0 &&
                 (inst.origin.x - row->origin.x) % row->siteWidth != 0) {
        out.push_back({Kind::kOffSite, i, -1});
      }
    }

    // Overlaps against previously indexed instances.
    index.query(bbox, [&](const geom::Rect& other, int j) {
      if (other.overlaps(bbox)) out.push_back({Kind::kOverlap, j, i});
    });
    index.insert(bbox, i);
  }
  return out;
}

}  // namespace pao::db
