#include "db/row_index.hpp"

#include <algorithm>
#include <limits>

namespace pao::db {

namespace {

/// a - b + 1 without overflow: the first coordinate strictly above a - b.
Coord above(Coord a, Coord b) {
  constexpr Coord kMin = std::numeric_limits<Coord>::min();
  return a < kMin + b ? kMin : a - b + 1;
}

/// End (exclusive) of the row range an instance is listed in: the rows its
/// bbox covers, and at least its own origin row.
Coord topOf(const geom::Rect& bbox) {
  return std::max(bbox.yhi, bbox.ylo + 1);
}

}  // namespace

RowIndex::RowIndex(const Design& design) {
  std::vector<Coord> ys;
  ys.reserve(design.instances.size());
  for (const Instance& inst : design.instances) ys.push_back(inst.origin.y);
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  rows_.resize(ys.size());
  for (std::size_t r = 0; r < ys.size(); ++r) rows_[r].y = ys[r];

  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const Instance& inst = design.instances[i];
    const geom::Rect bbox = inst.bbox();
    maxWidth_ = std::max(maxWidth_, bbox.width());
    maxHeight_ = std::max(maxHeight_, bbox.height());
    ++rowAt(inst.origin.y)->owners;
    for (auto row = rowAt(bbox.ylo); row != rows_.end() && row->y < topOf(bbox);
         ++row) {
      row->entries.push_back({inst.origin.x, i});
    }
  }
  for (Row& row : rows_) std::sort(row.entries.begin(), row.entries.end());
}

std::vector<RowIndex::Row>::iterator RowIndex::rowAt(Coord y) {
  return std::lower_bound(
      rows_.begin(), rows_.end(), y,
      [](const Row& row, Coord v) { return row.y < v; });
}

const RowIndex::Row* RowIndex::find(Coord y) const {
  const std::span<const Row> rows = rowsIn(y, y + 1);
  return rows.empty() ? nullptr : &rows.front();
}

std::span<const RowIndex::Row> RowIndex::rowsIn(Coord ylo, Coord yhi) const {
  const auto byY = [](const Row& row, Coord v) { return row.y < v; };
  const auto first = std::lower_bound(rows_.begin(), rows_.end(), ylo, byY);
  const auto last = std::lower_bound(first, rows_.end(), yhi, byY);
  return {first, last};
}

std::vector<int> RowIndex::overlapping(const Design& design,
                                       const geom::Rect& region) const {
  std::vector<int> out;
  if (region.empty()) return out;
  // An instance overlaps only if its origin y lies in
  // (region.ylo - height, region.yhi) and its origin x in
  // (region.xlo - width, region.xhi). It is visited in its own origin row
  // only, so a multi-height instance is reported once.
  for (const Row& row : rowsIn(above(region.ylo, maxHeight_), region.yhi)) {
    auto it = std::lower_bound(
        row.entries.begin(), row.entries.end(),
        Entry{above(region.xlo, maxWidth_), std::numeric_limits<int>::min()});
    for (; it != row.entries.end() && it->x < region.xhi; ++it) {
      const Instance& inst = design.instances[it->inst];
      if (inst.origin.y != row.y) continue;
      const geom::Rect bbox = inst.bbox();
      if (bbox.xlo < region.xhi && region.xlo < bbox.xhi &&
          bbox.ylo < region.yhi && region.ylo < bbox.yhi) {
        out.push_back(it->inst);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RowIndex::erase(const Design& design, int inst,
                     std::vector<Coord>& touched) {
  const Instance& in = design.instances[inst];
  const geom::Rect bbox = in.bbox();
  const Entry entry{in.origin.x, inst};
  for (auto row = rowAt(bbox.ylo); row != rows_.end() && row->y < topOf(bbox);
       ++row) {
    const auto it =
        std::lower_bound(row->entries.begin(), row->entries.end(), entry);
    if (it != row->entries.end() && *it == entry) row->entries.erase(it);
    touched.push_back(row->y);
  }
  const auto own = rowAt(in.origin.y);
  if (own != rows_.end() && own->y == in.origin.y && --own->owners == 0) {
    rows_.erase(own);
  }
}

void RowIndex::insert(const Design& design, int inst,
                      std::vector<Coord>& touched) {
  const Instance& in = design.instances[inst];
  const geom::Rect bbox = in.bbox();
  const Coord y = in.origin.y;
  auto own = rowAt(y);
  if (own == rows_.end() || own->y != y) {
    // A new row: list the taller instances from the rows below that
    // reach over y. Each is visited in its own origin row only.
    Row fresh;
    fresh.y = y;
    for (auto row = rowAt(above(y, maxHeight_)); row != own; ++row) {
      for (const Entry& e : row->entries) {
        const Instance& other = design.instances[e.inst];
        if (other.origin.y == row->y && other.bbox().yhi > y) {
          fresh.entries.push_back(e);
        }
      }
    }
    std::sort(fresh.entries.begin(), fresh.entries.end());
    own = rows_.insert(own, std::move(fresh));
  }
  ++own->owners;
  maxWidth_ = std::max(maxWidth_, bbox.width());
  maxHeight_ = std::max(maxHeight_, bbox.height());
  const Entry entry{in.origin.x, inst};
  for (auto row = own; row != rows_.end() && row->y < topOf(bbox); ++row) {
    row->entries.insert(
        std::lower_bound(row->entries.begin(), row->entries.end(), entry),
        entry);
    touched.push_back(row->y);
  }
}

void RowIndex::renumberAfterRemove(int removed) {
  for (Row& row : rows_) {
    for (Entry& e : row.entries) {
      if (e.inst > removed) --e.inst;
    }
  }
}

}  // namespace pao::db
