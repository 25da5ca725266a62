// Placement rows as the oracle sees them: one row per distinct instance
// origin y (not Design::rows, which a placement may leave), holding every
// instance whose bbox covers that y — a multi-height instance is listed in
// each row it spans — sorted by (origin x, instance index). Step-3
// clustering splits these rows into abutting runs, an incremental session
// re-splits only the rows a mutation touched, and region queries map a box
// to a row range and then to an x range by binary search (the box-to-cell
// range lookup of a dense navigation grid, instead of a scan of every
// instance): forEachNear(), which the failed-pin evaluation reads every
// placed shape through.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "db/design.hpp"

namespace pao::db {

class RowIndex {
 public:
  /// One listing of an instance in a row; ordered by (x, inst).
  struct Entry {
    Coord x = 0;  ///< the instance's origin x
    int inst = -1;
    auto operator<=>(const Entry&) const = default;
  };
  struct Row {
    Coord y = 0;
    /// Instances whose origin y is this row's y; the row exists while
    /// there is at least one.
    std::size_t owners = 0;
    std::vector<Entry> entries;  ///< ascending
  };

  RowIndex() = default;
  explicit RowIndex(const Design& design);

  /// All rows, bottom-up.
  const std::vector<Row>& rows() const { return rows_; }
  /// The row at `y`, or null.
  const Row* find(Coord y) const;
  /// The rows whose y lies in [ylo, yhi), bottom-up.
  std::span<const Row> rowsIn(Coord ylo, Coord yhi) const;

  /// Calls fn(inst) once for every instance whose bbox touches or overlaps
  /// `region` (closed). Visits only the rows within the tallest indexed
  /// instance of the region's y range, and in each the entries within the
  /// widest one of its x range. Rows go bottom-up, each in ascending
  /// (x, inst); an instance is visited in its own origin row only, so a
  /// multi-height instance is reported once.
  template <typename Fn>
  void forEachNear(const Design& design, const geom::Rect& region,
                   Fn&& fn) const {
    if (region.empty()) return;
    const auto byY = [](const Row& row, Coord v) { return row.y < v; };
    for (auto row = std::lower_bound(rows_.begin(), rows_.end(),
                                     minus(region.ylo, maxHeight_), byY);
         row != rows_.end() && row->y <= region.yhi; ++row) {
      auto it = std::lower_bound(
          row->entries.begin(), row->entries.end(),
          Entry{minus(region.xlo, maxWidth_), std::numeric_limits<int>::min()});
      for (; it != row->entries.end() && it->x <= region.xhi; ++it) {
        const Instance& inst = design.instances[it->inst];
        if (inst.origin.y == row->y && inst.bbox().intersects(region)) {
          fn(it->inst);
        }
      }
    }
  }

  /// Instances whose bbox interior overlaps the interior of `region`
  /// (touching does not count), in ascending index order.
  std::vector<int> overlapping(const Design& design,
                               const geom::Rect& region) const;

  // --- mutation ------------------------------------------------------------
  // An edit of instance i is erase(i) against the design before the edit,
  // then insert(i) against the design after it. Each call appends the y of
  // every row whose entries it changed, created or dropped to `touched`
  // (possibly with repeats). O(row length) per row the instance spans, plus
  // the taller instances' rows scanned when a row is created.

  /// Unlists instance `inst` at its current geometry. A row left without
  /// owners is dropped, with the taller instances listed in it.
  void erase(const Design& design, int inst, std::vector<Coord>& touched);
  /// Lists instance `inst` at its current geometry. A row created at its
  /// origin y also lists every taller instance that covers that y.
  void insert(const Design& design, int inst, std::vector<Coord>& touched);
  /// Renumbers after Design::removeInstance(removed): entries above it shift
  /// down by one (the instance itself must have been erased). O(entries).
  void renumberAfterRemove(int removed);

 private:
  std::vector<Row>::iterator rowAt(Coord y);
  /// a - b for b >= 0, saturating at the lowest Coord.
  static Coord minus(Coord a, Coord b) {
    constexpr Coord kMin = std::numeric_limits<Coord>::min();
    return a < kMin + b ? kMin : a - b;
  }

  std::vector<Row> rows_;
  /// Largest bbox width and height of any instance ever listed: the
  /// widening of forEachNear() and of a created row's taller-instance scan.
  /// Never shrinks, which only widens a search.
  Coord maxWidth_ = 0;
  Coord maxHeight_ = 0;
};

}  // namespace pao::db
