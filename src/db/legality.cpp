#include "db/legality.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "db/row_index.hpp"

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
  // the first row in design order at each y.
  std::map<Coord, const Row*> rowAtY;
  for (const Row& row : design.rows) rowAtY.emplace(row.origin.y, &row);

  // Overlapping pairs (j < i, sorted): two bboxes whose interiors meet
  // share the RowIndex row at the higher of their origin ys, where both are
  // listed. Each row is swept once in x order against the entries still
  // open; a pair is kept in that one row only.
  std::vector<std::pair<int, int>> overlaps;
  const RowIndex rowIndex(design);
  std::vector<int> open;
  for (const RowIndex::Row& row : rowIndex.rows()) {
    open.clear();
    for (const auto& [x, i] : row.entries) {
      const Instance& inst = design.instances[i];
      std::erase_if(open, [&](int j) {
        return design.instances[j].bbox().xhi <= x;
      });
      for (const int j : open) {
        const Instance& other = design.instances[j];
        if (std::max(other.origin.y, inst.origin.y) == row.y &&
            other.bbox().overlaps(inst.bbox())) {
          overlaps.emplace_back(std::max(i, j), std::min(i, j));
        }
      }
      open.push_back(i);
    }
  }
  std::sort(overlaps.begin(), overlaps.end());
  auto overlap = overlaps.begin();

  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const Instance& inst = design.instances[i];
    if (!design.dieArea.empty() && !design.dieArea.contains(inst.bbox())) {
      out.push_back({Kind::kOffDie, i, -1});
    }

    if (!rowAtY.empty() && inst.master->cls != MasterClass::kBlock) {
      const auto it = rowAtY.find(inst.origin.y);
      const Row* row = it != rowAtY.end() ? it->second : nullptr;
      if (row == nullptr) {
        out.push_back({Kind::kNoRow, i, -1});
      } else if (row->siteWidth > 0 &&
                 (inst.origin.x - row->origin.x) % row->siteWidth != 0) {
        out.push_back({Kind::kOffSite, i, -1});
      }
    }

    for (; overlap != overlaps.end() && overlap->first == i; ++overlap) {
      out.push_back({Kind::kOverlap, overlap->second, i});
    }
  }
  return out;
}

}  // namespace pao::db
