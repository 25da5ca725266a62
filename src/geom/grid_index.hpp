// Uniform-grid spatial index over axis-aligned rectangles, the region-query
// backbone of the DRC engine. Items are binned into square grid cells and a
// rectangle query visits only the cells it overlaps.
//
// Layout: the bins are a dense row-major array over the cell range the items
// occupy, so a cell is found by arithmetic (`coord >> shift`), never by
// hashing. Each bin is a segment of one shared slot array of 32-bit item
// indices. The bulk constructor counts the items per bin, sizes the slot
// array exactly and fills it in a second pass; insert() appends to a bin's
// segment and moves the segment to the end of the slot array, at double the
// capacity, when it is full. Both fill the same storage, so there is one
// query loop.
//
// Memory is O(items + occupied cells), never O(coordinate spread): when the
// occupied range would hold far more cells than the items cover (items far
// apart, or a few huge ones), the index bins at a coarser power-of-two cell
// derived from the input instead of the requested one.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "geom/geom.hpp"

namespace pao::geom {

/// An index of `T` values. By default each value is stored beside its box.
/// When `T` carries its own box, pass the member as `BoxMember` (e.g.
/// `GridIndex<Shape, &Shape::rect>`): the index then stores the values
/// themselves and items() is the one copy of them.
template <typename T, auto BoxMember = nullptr>
class GridIndex {
  static constexpr bool kSelfBoxed =
      !std::is_null_pointer_v<decltype(BoxMember)>;

 public:
  struct Entry {
    Rect bbox;
    T value;
  };
  using Item = std::conditional_t<kSelfBoxed, T, Entry>;

  /// `cellSize` must be a power of two; a few track pitches is a good
  /// default for standard-cell-scale layouts.
  explicit GridIndex(Coord cellSize = 4096) : shift_(shiftOf(cellSize)) {}

  /// Bulk fill: indexes `items` in their order, with the bins sized exactly.
  explicit GridIndex(std::vector<Item> items, Coord cellSize = 4096)
      : GridIndex(cellSize) {
    items_ = std::move(items);
    checkItemCount(items_.size());
    for (const Item& it : items_) extent_ = extent_.merge(boxOf(it));
    layout(extent_);
  }

  void insert(const Rect& bbox, T value)
    requires(!kSelfBoxed)
  {
    append(Entry{bbox, std::move(value)});
  }
  void insert(T value)
    requires kSelfBoxed
  {
    append(std::move(value));
  }

  void clear() {
    items_.clear();
    extent_ = Rect();
    bins_.clear();
    slots_.clear();
    nx_ = ny_ = 0;
  }

  std::size_t size() const { return items_.size(); }
  /// Cells of the dense bin range (memory diagnostics).
  std::size_t binCount() const { return bins_.size(); }
  /// Every item, in insertion order.
  const std::vector<Item>& items() const { return items_; }

  /// Invokes `fn(index)` with the items() index of every item whose box
  /// intersects `query` (closed-region semantics: touching counts). Cells
  /// are visited in (y, x) scan order and a cell's items in insertion order.
  /// An item spanning several visited cells is reported only from the first
  /// cell (in scan order) of its cell range clipped to the query's: a
  /// stateless dedup, so concurrent queries share nothing. Allocation-free.
  template <typename Fn>
  void queryIndices(const Rect& query, Fn&& fn) const {
    if (query.empty() || nx_ == 0) return;
    const int s = cellShift_;
    const std::int64_t qx1 = query.xlo >> s;
    const std::int64_t qy1 = query.ylo >> s;
    const std::int64_t x1 = std::max(qx1, gx0_);
    const std::int64_t y1 = std::max(qy1, gy0_);
    const std::int64_t x2 = std::min(query.xhi >> s, gx0_ + nx_ - 1);
    const std::int64_t y2 = std::min(query.yhi >> s, gy0_ + ny_ - 1);
    for (std::int64_t gy = y1; gy <= y2; ++gy) {
      const std::size_t row = static_cast<std::size_t>((gy - gy0_) * nx_);
      for (std::int64_t gx = x1; gx <= x2; ++gx) {
        const Bin& bin = bins_[row + static_cast<std::size_t>(gx - gx0_)];
        const std::uint32_t* slot = slots_.data() + bin.begin;
        for (const std::uint32_t* end = slot + bin.size; slot != end; ++slot) {
          const Rect& box = boxOf(items_[*slot]);
          if (!box.intersects(query)) continue;
          if (gx != std::max(qx1, box.xlo >> s) ||
              gy != std::max(qy1, box.ylo >> s)) {
            continue;
          }
          fn(static_cast<std::size_t>(*slot));
        }
      }
    }
  }

  /// queryIndices() reporting `fn(bbox, value)`.
  template <typename Fn>
  void query(const Rect& query, Fn&& fn) const {
    queryIndices(query, [&](std::size_t i) {
      fn(boxOf(items_[i]), valueOf(items_[i]));
    });
  }

  /// Convenience: collects matching values into a vector.
  std::vector<T> queryValues(const Rect& query) const {
    std::vector<T> out;
    this->query(query, [&](const Rect&, const T& v) { out.push_back(v); });
    return out;
  }

 private:
  /// A bin's items are slots_[begin, begin + size); it may grow in place up
  /// to `capacity`.
  struct Bin {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  /// The cell budget of an index of n items is kDensity * n + kMinBins:
  /// neither the cells of the occupied range nor the item-cell pairs may
  /// exceed it, or the cell is coarsened.
  static constexpr std::uint64_t kDensity = 16;
  static constexpr std::uint64_t kMinBins = 4096;

  static const Rect& boxOf(const Item& it) {
    if constexpr (kSelfBoxed) {
      return it.*BoxMember;
    } else {
      return it.bbox;
    }
  }
  static const T& valueOf(const Item& it) {
    if constexpr (kSelfBoxed) {
      return it;
    } else {
      return it.value;
    }
  }

  static int shiftOf(Coord cellSize) {
    const auto u = static_cast<std::uint64_t>(cellSize);
    if (cellSize <= 0 || !std::has_single_bit(u)) {
      throw std::invalid_argument("GridIndex cell size must be a power of two");
    }
    return std::countr_zero(u);
  }

  static void checkItemCount(std::size_t n) {
    if (n > UINT32_MAX) throw std::length_error("GridIndex item overflow");
  }

  /// Cells of [lo, hi] along one axis at shift `s`.
  static std::uint64_t span(Coord lo, Coord hi, int s) {
    return static_cast<std::uint64_t>((hi >> s) - (lo >> s)) + 1;
  }

  /// Cells of `r` at shift `s`, saturating at `cap`.
  static std::uint64_t cells(const Rect& r, int s, std::uint64_t cap) {
    const std::uint64_t w = span(r.xlo, r.xhi, s);
    const std::uint64_t h = span(r.ylo, r.yhi, s);
    return w > cap / h ? cap : w * h;
  }

  std::uint64_t budget() const {
    return kDensity * items_.size() + kMinBins;
  }

  /// The finest shift, at or above the requested one, at which both the
  /// cells of the items' extent and the item-cell pairs fit the budget.
  int deriveShift() const {
    const std::uint64_t budget = this->budget();
    for (int s = shift_;; ++s) {
      if (cells(extent_, s, budget + 1) > budget) continue;
      std::uint64_t slots = 0;
      for (const Item& it : items_) {
        const Rect& box = boxOf(it);
        if (!box.empty()) slots += cells(box, s, budget + 1);
        if (slots > budget) break;
      }
      if (slots <= budget) return s;
    }
  }

  /// Re-bins every item at the derived cell: counts per bin, sizes the
  /// slots exactly, then fills them in item order. The bins cover `range`
  /// (which contains the items' extent) if it fits the budget, else just the
  /// extent.
  void layout(Rect range) {
    bins_.clear();
    slots_.clear();
    nx_ = ny_ = 0;
    if (extent_.empty()) return;
    cellShift_ = deriveShift();
    const int s = cellShift_;
    if (cells(range, s, budget() + 1) > budget()) range = extent_;
    gx0_ = range.xlo >> s;
    gy0_ = range.ylo >> s;
    nx_ = static_cast<std::int64_t>(span(range.xlo, range.xhi, s));
    ny_ = static_cast<std::int64_t>(span(range.ylo, range.yhi, s));
    bins_.assign(static_cast<std::size_t>(nx_ * ny_), Bin{});
    std::size_t total = 0;
    for (const Item& it : items_) {
      forEachCell(boxOf(it), [&](Bin& bin) {
        ++bin.capacity;
        ++total;
      });
    }
    if (total > UINT32_MAX) throw std::length_error("GridIndex slot overflow");
    std::uint32_t begin = 0;
    for (Bin& bin : bins_) {
      bin.begin = begin;
      begin += bin.capacity;
    }
    slots_.resize(total);
    for (std::uint32_t i = 0; i < items_.size(); ++i) {
      forEachCell(boxOf(items_[i]),
                  [&](Bin& bin) { slots_[bin.begin + bin.size++] = i; });
    }
  }

  /// Calls `fn(bin)` for every cell `box` covers, in scan order. The range
  /// must cover `box`.
  template <typename Fn>
  void forEachCell(const Rect& box, Fn&& fn) {
    if (box.empty()) return;
    const int s = cellShift_;
    for (std::int64_t gy = box.ylo >> s; gy <= box.yhi >> s; ++gy) {
      const std::size_t row = static_cast<std::size_t>((gy - gy0_) * nx_);
      for (std::int64_t gx = box.xlo >> s; gx <= box.xhi >> s; ++gx) {
        fn(bins_[row + static_cast<std::size_t>(gx - gx0_)]);
      }
    }
  }

  bool covers(const Rect& box) const {
    const int s = cellShift_;
    return nx_ > 0 && (box.xlo >> s) >= gx0_ && (box.ylo >> s) >= gy0_ &&
           (box.xhi >> s) < gx0_ + nx_ && (box.yhi >> s) < gy0_ + ny_;
  }

  void append(Item item) {
    checkItemCount(items_.size() + 1);
    const Rect box = boxOf(item);
    items_.push_back(std::move(item));
    if (box.empty()) return;
    extent_ = extent_.merge(box);
    if (!covers(box)) {
      // Re-bin over the items' extent padded by half its size on every
      // side, so that inserts spreading outward re-bin O(log spread) times.
      const Coord padX = (extent_.xhi - extent_.xlo) / 2 + 1;
      const Coord padY = (extent_.yhi - extent_.ylo) / 2 + 1;
      const Rect& e = extent_;
      layout(Rect::rawRect(std::min(e.xlo, std::max(kCoordMin, e.xlo - padX)),
                           std::min(e.ylo, std::max(kCoordMin, e.ylo - padY)),
                           std::max(e.xhi, std::min(kCoordMax, e.xhi + padX)),
                           std::max(e.yhi, std::min(kCoordMax, e.yhi + padY))));
      return;
    }
    const auto idx = static_cast<std::uint32_t>(items_.size() - 1);
    forEachCell(box, [&](Bin& bin) {
      if (bin.size == bin.capacity) {
        // Full: move the segment to the end of the slots at twice the size.
        const std::size_t begin = slots_.size();
        const std::uint32_t capacity =
            std::max<std::uint32_t>(4, bin.capacity * 2);
        if (begin + capacity > UINT32_MAX) {
          throw std::length_error("GridIndex slot overflow");
        }
        slots_.resize(begin + capacity);
        std::copy_n(slots_.begin() + bin.begin, bin.size,
                    slots_.begin() + static_cast<std::ptrdiff_t>(begin));
        bin.begin = static_cast<std::uint32_t>(begin);
        bin.capacity = capacity;
      }
      slots_[bin.begin + bin.size++] = idx;
    });
  }

  int shift_;          ///< log2 of the requested cell size
  int cellShift_ = 0;  ///< log2 of the cell in use (>= shift_)
  std::int64_t gx0_ = 0, gy0_ = 0;  ///< first cell of the dense range
  std::int64_t nx_ = 0, ny_ = 0;    ///< cells per row, rows
  Rect extent_;  ///< union of the items' boxes
  std::vector<Item> items_;
  std::vector<Bin> bins_;             ///< nx_ * ny_, row-major from (gx0_, gy0_)
  std::vector<std::uint32_t> slots_;  ///< item indices, one segment per bin
};

}  // namespace pao::geom
