#include "geom/polygon.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <utility>

#include "util/arena.hpp"

namespace pao::geom {

// These primitives run inside the DRC hot loop (checkVia extracts one
// unionBoundary per via enclosure, shared by min-step and EOL), so all
// internal scratch lives in the calling thread's arena. The slab sweep
// (unionSlabs, unionArea, maxRects) keeps sorted flat interval lists, not a
// node-based map. unionBoundary touches no heap at all: a lone rectangle
// (every via enclosure checked on its own) gets its ring in closed form,
// anything else is traced as rings over a coverage bitmap of the rects'
// compressed grid, bit rows in the arena, and the rings go to caller
// storage in the same arena. The other functions return heap containers.

namespace {

using util::ArenaVector;

/// Merges a set of closed intervals into a minimal disjoint set (in place).
void mergeIntervals(ArenaVector<Interval>& ivs, ArenaVector<Interval>& out) {
  out.clear();
  std::sort(ivs.begin(), ivs.end(), [](const Interval& a, const Interval& b) {
    return a.lo < b.lo || (a.lo == b.lo && a.hi < b.hi);
  });
  for (const Interval& iv : ivs) {
    if (iv.empty()) continue;
    if (!out.empty() && iv.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, iv.hi);
    } else {
      out.push_back(iv);
    }
  }
}

std::vector<Rect> transpose(const std::vector<Rect>& rects) {
  std::vector<Rect> out;
  out.reserve(rects.size());
  for (const Rect& r : rects) out.emplace_back(r.ylo, r.xlo, r.yhi, r.xhi);
  return out;
}

/// Whether `r` takes part in a union: nonempty with nonzero area.
bool inUnion(const Rect& r) { return !r.empty() && r.area() != 0; }

void sortUnique(ArenaVector<Coord>& cs) {
  std::sort(cs.begin(), cs.end());
  cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
}

/// Index of `v` in the sorted distinct coordinates `cs`.
std::size_t lineOf(const ArenaVector<Coord>& cs, Coord v) {
  return static_cast<std::size_t>(
      std::lower_bound(cs.begin(), cs.end(), v) - cs.begin());
}

/// A slab of the previous band that the next band may extend downward:
/// its x-interval and its index in the output.
struct OpenSlab {
  Coord lo;
  Coord hi;
  std::size_t slab;
};

/// Shared slab sweep: appends the disjoint canonical slabs of the union of
/// `rects` to `out` (any container with emplace_back/back/size/operator[]).
/// The caller must hold an ArenaScope — an arena-backed `out` is allocated
/// from that scope, so opening one here would rewind it on return.
template <typename OutVec>
void unionSlabsInto(std::span<const Rect> rects, OutVec& out) {
  ArenaVector<Rect> live;
  live.reserve(rects.size());
  for (const Rect& r : rects) {
    if (inUnion(r)) live.push_back(r);
  }
  if (live.empty()) return;

  ArenaVector<Coord> ys;
  ys.reserve(live.size() * 2);
  for (const Rect& r : live) {
    ys.push_back(r.ylo);
    ys.push_back(r.yhi);
  }
  sortUnique(ys);

  // A band's merged intervals are disjoint and sorted, so the previous
  // band's open slabs are too, and one forward walk finds each interval's
  // match for the vertical merge.
  ArenaVector<OpenSlab> open;
  ArenaVector<OpenSlab> nextOpen;
  ArenaVector<Interval> xs;
  ArenaVector<Interval> merged;
  open.reserve(live.size());
  nextOpen.reserve(live.size());
  xs.reserve(live.size());
  merged.reserve(live.size());
  for (std::size_t bi = 0; bi + 1 < ys.size(); ++bi) {
    const Coord y1 = ys[bi];
    const Coord y2 = ys[bi + 1];
    xs.clear();
    for (const Rect& r : live) {
      if (r.ylo <= y1 && r.yhi >= y2) xs.push_back(r.xSpan());
    }
    mergeIntervals(xs, merged);
    nextOpen.clear();
    std::size_t k = 0;
    for (const Interval& iv : merged) {
      while (k < open.size() && open[k].lo < iv.lo) ++k;
      if (k < open.size() && open[k].lo == iv.lo && open[k].hi == iv.hi &&
          out[open[k].slab].yhi == y1) {
        out[open[k].slab].yhi = y2;  // extend the slab from the previous band
        nextOpen.push_back({iv.lo, iv.hi, open[k].slab});
      } else {
        out.emplace_back(iv.lo, y1, iv.hi, y2);
        nextOpen.push_back({iv.lo, iv.hi, out.size() - 1});
      }
    }
    std::swap(open, nextOpen);
  }
}

}  // namespace

std::vector<Rect> unionSlabs(std::vector<Rect> rects) {
  util::ArenaScope scratch(util::scratchArena());
  std::vector<Rect> out;
  unionSlabsInto(rects, out);
  return out;
}

Area unionArea(const std::vector<Rect>& rects) {
  util::ArenaScope scratch(util::scratchArena());
  ArenaVector<Rect> slabs;
  unionSlabsInto(rects, slabs);
  Area a = 0;
  for (const Rect& r : slabs) a += r.area();
  return a;
}

std::vector<std::vector<Rect>> connectedComponents(
    const std::vector<Rect>& rects) {
  util::ArenaScope scratch(util::scratchArena());
  const std::size_t n = rects.size();
  ArenaVector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](std::size_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rects[i].intersects(rects[j])) parent[find(i)] = find(j);
    }
  }
  // Output component of each root, numbered in first-member order.
  constexpr std::size_t kNone = ~std::size_t{0};
  ArenaVector<std::size_t> compOf(n, kNone);
  std::vector<std::vector<Rect>> out;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t& comp = compOf[find(i)];
    if (comp == kNone) {
      comp = out.size();
      out.emplace_back();
    }
    out[comp].push_back(rects[i]);
  }
  return out;
}

void unionBoundary(std::span<const Rect> rects, BoundaryRings& out) {
  out.edges.clear();
  out.ends.clear();
  if (rects.size() == 1 && rects[0].area() != 0) {
    // The ring the walk below emits for one rect: bottom, right, top, left.
    const Rect& r = rects[0];
    out.edges.push_back({{r.xlo, r.ylo}, {r.xhi, r.ylo}});
    out.edges.push_back({{r.xhi, r.ylo}, {r.xhi, r.yhi}});
    out.edges.push_back({{r.xhi, r.yhi}, {r.xlo, r.yhi}});
    out.edges.push_back({{r.xlo, r.yhi}, {r.xlo, r.ylo}});
    out.ends.push_back(4);
    return;
  }
  ArenaVector<Coord> xs;
  ArenaVector<Coord> ys;
  xs.reserve(rects.size() * 2);
  ys.reserve(rects.size() * 2);
  for (const Rect& r : rects) {
    if (!inUnion(r)) continue;
    xs.push_back(r.xlo);
    xs.push_back(r.xhi);
    ys.push_back(r.ylo);
    ys.push_back(r.yhi);
  }
  if (xs.empty()) return;
  sortUnique(xs);
  sortUnique(ys);

  // The compressed grid: line i is xs[i] (line j is ys[j]), and cell (c, r)
  // lies between lines c-1 and c and between lines r-1 and r, so cells 0
  // and size() of each axis are a clear border and vertex (i, j) is the
  // corner of cells (i..i+1, j..j+1). Both bitmaps are bit rows of `words`
  // uint64_t: `cover` marks covered cells (rows 0..ny), `used` the
  // horizontal unit edges a ring has taken (bit c of row j: the edge on
  // line j between lines c-1 and c).
  const std::size_t ny = ys.size();
  const std::size_t words = xs.size() / 64 + 1;
  ArenaVector<std::uint64_t> cover((ny + 1) * words, 0);
  ArenaVector<std::uint64_t> used(ny * words, 0);
  const auto mark = [words](ArenaVector<std::uint64_t>& bits, std::size_t c,
                            std::size_t r) {
    bits[r * words + (c >> 6)] |= std::uint64_t{1} << (c & 63);
  };
  for (const Rect& r : rects) {
    if (!inUnion(r)) continue;
    const std::size_t c0 = lineOf(xs, r.xlo) + 1;
    const std::size_t c1 = lineOf(xs, r.xhi);
    const std::size_t r1 = lineOf(ys, r.yhi);
    for (std::size_t y = lineOf(ys, r.ylo) + 1; y <= r1; ++y) {
      for (std::size_t c = c0; c <= c1; ++c) mark(cover, c, y);
    }
  }
  const auto covered = [&cover, words](std::size_t c, std::size_t r) {
    return unsigned(cover[r * words + (c >> 6)] >> (c & 63)) & 1;
  };
  // The cells around vertex (i, j), counter-clockwise from the upper right,
  // as bits 0-3. The unit edge leaving the vertex in direction d (0 +x, 1
  // +y, 2 -x, 3 -y) has cell d on its left and cell d-1 (mod 4) on its
  // right, so it is a boundary edge, interior on the left, when the first
  // is covered and the second clear.
  const auto quad = [&](std::size_t i, std::size_t j) {
    return covered(i + 1, j + 1) | covered(i, j + 1) << 1 |
           covered(i, j) << 2 | covered(i + 1, j) << 3;
  };
  const auto leaves = [](unsigned q, int d) {
    return ((q >> d) & 1) != 0 && ((q >> ((d + 3) & 3)) & 1) == 0;
  };
  constexpr int kDx[4] = {1, 0, -1, 0};
  constexpr int kDy[4] = {0, 1, 0, -1};
  // Each ring starts at its least unused horizontal unit edge by (y, x) and
  // turns sharpest-left first (left, straight, right), so unions that touch
  // at a corner stay separate rings and the interior stays on the left.
  // Collinear unit edges merge as the ring is walked.
  out.edges.reserve(2 * (xs.size() + ny));
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t edges =
          cover[j * words + w] ^ cover[(j + 1) * words + w];
      for (std::uint64_t open; (open = edges & ~used[j * words + w]);) {
        const std::size_t c = w * 64 + std::countr_zero(open);
        // Covered above runs +x from line c-1, covered below -x from c.
        const bool up = covered(c, j + 1);
        const std::size_t si = up ? c - 1 : c;
        const int sd = up ? 0 : 2;
        const std::size_t first = out.edges.size();
        std::size_t i = si;
        std::size_t y = j;
        int d = sd;
        int lastDir = -1;
        do {
          if (d % 2 == 0) mark(used, d == 0 ? i + 1 : i, y);
          const Point from{xs[i], ys[y]};
          i += kDx[d];
          y += kDy[d];
          if (d == lastDir) {
            out.edges.back().to = {xs[i], ys[y]};
          } else {
            out.edges.push_back({from, {xs[i], ys[y]}});
          }
          lastDir = d;
          const unsigned q = quad(i, y);
          if (leaves(q, (d + 1) & 3)) {
            d = (d + 1) & 3;
          } else if (!leaves(q, d)) {
            d = (d + 3) & 3;
          }
        } while (i != si || y != j || d != sd);
        // ...including across the wrap point.
        if (lastDir == sd && out.edges.size() - first >= 2) {
          out.edges[first].from = out.edges.back().from;
          out.edges.pop_back();
        }
        out.ends.push_back(static_cast<std::uint32_t>(out.edges.size()));
      }
    }
  }
}

std::vector<Rect> maxRects(const std::vector<Rect>& rects) {
  util::ArenaScope scratch(util::scratchArena());
  std::vector<Rect> out;

  const auto extendVertically = [](const ArenaVector<Rect>& slabs,
                                   std::vector<Rect>& result) {
    for (const Rect& s : slabs) {
      Coord lo = s.ylo;
      Coord hi = s.yhi;
      bool grew = true;
      while (grew) {
        grew = false;
        for (const Rect& t : slabs) {
          if (t.yhi == lo && t.xlo <= s.xlo && t.xhi >= s.xhi) {
            lo = t.ylo;
            grew = true;
          }
          if (t.ylo == hi && t.xlo <= s.xlo && t.xhi >= s.xhi) {
            hi = t.yhi;
            grew = true;
          }
        }
      }
      result.emplace_back(s.xlo, lo, s.xhi, hi);
    }
  };

  ArenaVector<Rect> slabs;
  unionSlabsInto(rects, slabs);
  extendVertically(slabs, out);
  std::vector<Rect> vOut;
  slabs.clear();
  unionSlabsInto(transpose(rects), slabs);
  extendVertically(slabs, vOut);
  for (const Rect& r : transpose(vOut)) out.push_back(r);

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  // Drop rects that are strictly contained in another (non-maximal).
  std::vector<Rect> maximal;
  for (const Rect& r : out) {
    bool dominated = false;
    for (const Rect& o : out) {
      if (o != r && o.contains(r)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) maximal.push_back(r);
  }
  return maximal;
}

}  // namespace pao::geom
