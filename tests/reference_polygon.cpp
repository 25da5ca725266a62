// Frozen reference: geom::unionBoundary and geom::unionSlabs as they were
// before their sweeps became flat (std::map per band and per scanline, an
// unordered_map stitching table). Kept verbatim apart from the namespace and
// the dropped helpers nothing here calls; UnionBoundaryDifferential and the
// reference DRC kernels run on them. Do not edit.
#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>
#include <unordered_map>

#include "geom/polygon.hpp"
#include "reference.hpp"
#include "util/arena.hpp"

namespace pao::reference {

using geom::Area;
using geom::BoundaryEdge;
using geom::Coord;
using geom::Interval;
using geom::Point;
using geom::Rect;

namespace {

using util::ArenaVector;

template <typename K, typename V, typename Comp = std::less<K>>
using ArenaMap = std::map<K, V, Comp, util::ArenaAllocator<std::pair<const K, V>>>;

template <typename K, typename V, typename Hash = std::hash<K>>
using ArenaHashMap =
    std::unordered_map<K, V, Hash, std::equal_to<K>,
                       util::ArenaAllocator<std::pair<const K, V>>>;

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

/// Shared slab sweep: appends the disjoint canonical slabs of the union of
/// `rects` to `out` (any container with emplace_back/back/size/operator[]).
/// The caller must hold an ArenaScope — an arena-backed `out` is allocated
/// from that scope, so opening one here would rewind it on return.
template <typename OutVec>
void unionSlabsInto(std::span<const Rect> rects, OutVec& out) {
  ArenaVector<Rect> live;
  live.reserve(rects.size());
  for (const Rect& r : rects) {
    if (!r.empty() && r.area() != 0) live.push_back(r);
  }
  if (live.empty()) return;

  ArenaVector<Coord> ys;
  ys.reserve(live.size() * 2);
  for (const Rect& r : live) {
    ys.push_back(r.ylo);
    ys.push_back(r.yhi);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  // Open slabs from the previous band keyed by x-interval, for vertical
  // merge.
  ArenaMap<std::pair<Coord, Coord>, std::size_t> open;
  ArenaVector<Interval> xs;
  ArenaVector<Interval> merged;
  for (std::size_t bi = 0; bi + 1 < ys.size(); ++bi) {
    const Coord y1 = ys[bi];
    const Coord y2 = ys[bi + 1];
    xs.clear();
    for (const Rect& r : live) {
      if (r.ylo <= y1 && r.yhi >= y2) xs.push_back(r.xSpan());
    }
    ArenaMap<std::pair<Coord, Coord>, std::size_t> nextOpen;
    mergeIntervals(xs, merged);
    for (const Interval& iv : merged) {
      const auto key = std::make_pair(iv.lo, iv.hi);
      const auto it = open.find(key);
      if (it != open.end() && out[it->second].yhi == y1) {
        out[it->second].yhi = y2;  // extend the slab from the previous band
        nextOpen[key] = it->second;
      } else {
        out.emplace_back(iv.lo, y1, iv.hi, y2);
        nextOpen[key] = out.size() - 1;
      }
    }
    open = std::move(nextOpen);
  }
}

}  // namespace

std::vector<Rect> unionSlabs(std::vector<Rect> rects) {
  util::ArenaScope scratch(util::scratchArena());
  std::vector<Rect> out;
  unionSlabsInto(rects, out);
  return out;
}

namespace {

struct RawEdge {
  Point from;
  Point to;
};

/// Sweeps one scanline worth of horizontal (or, transposed, vertical) edge
/// contributions and appends net boundary edges. `plus` intervals carry
/// weight +1, `minus` weight -1; net +1 emits a forward edge, net -1 a
/// reversed edge, at the given fixed coordinate.
void sweepLine(Coord fixed, bool horizontal, const ArenaVector<Interval>& plus,
               const ArenaVector<Interval>& minus,
               ArenaVector<RawEdge>& out) {
  // Event-based coverage count over the variable axis.
  ArenaMap<Coord, int> delta;
  for (const Interval& iv : plus) {
    delta[iv.lo] += 1;
    delta[iv.hi] -= 1;
  }
  for (const Interval& iv : minus) {
    delta[iv.lo] -= 1;
    delta[iv.hi] += 1;
  }
  int cover = 0;
  Coord start = 0;
  int prevSign = 0;
  for (const auto& [pos, d] : delta) {
    if (prevSign != 0 && pos > start) {
      const Point a = horizontal ? Point{start, fixed} : Point{fixed, start};
      const Point b = horizontal ? Point{pos, fixed} : Point{fixed, pos};
      if (prevSign > 0) {
        out.push_back({a, b});  // bottom (+x) or left-swept equivalent
      } else {
        out.push_back({b, a});  // top (-x)
      }
    }
    cover += d;
    start = pos;
    prevSign = cover > 0 ? 1 : (cover < 0 ? -1 : 0);
  }
}

/// Turn preference: sharpest left turn first, so rings that touch at a corner
/// stay separate and interiors stay on the left.
int turnScore(const Point& inDir, const Point& outDir) {
  // cross > 0: left turn; cross == 0 && dot > 0: straight; cross < 0: right.
  const Coord cross = inDir.x * outDir.y - inDir.y * outDir.x;
  const Coord dot = inDir.x * outDir.x + inDir.y * outDir.y;
  if (cross > 0) return 0;             // left
  if (cross == 0 && dot > 0) return 1; // straight
  if (cross < 0) return 2;             // right
  return 3;                            // U-turn
}

Point dirOf(const RawEdge& e) {
  return {e.to.x == e.from.x ? 0 : (e.to.x > e.from.x ? 1 : -1),
          e.to.y == e.from.y ? 0 : (e.to.y > e.from.y ? 1 : -1)};
}

}  // namespace

std::vector<BoundaryRing> unionBoundary(std::span<const Rect> rects) {
  util::ArenaScope scratch(util::scratchArena());
  ArenaVector<Rect> slabs;
  unionSlabsInto(rects, slabs);
  if (slabs.empty()) return {};

  ArenaVector<RawEdge> edges;

  using IntervalPair = std::pair<ArenaVector<Interval>, ArenaVector<Interval>>;
  // Horizontal boundary edges: group slab bottoms (+1) and tops (-1) by y.
  {
    ArenaMap<Coord, IntervalPair> byY;
    for (const Rect& s : slabs) {
      byY[s.ylo].first.push_back(s.xSpan());
      byY[s.yhi].second.push_back(s.xSpan());
    }
    for (auto& [y, pm] : byY) {
      sweepLine(y, /*horizontal=*/true, pm.first, pm.second, edges);
    }
  }
  // Vertical boundary edges: rights carry +1 (direction +y, interior left),
  // lefts carry -1 (direction -y).
  {
    ArenaMap<Coord, IntervalPair> byX;
    for (const Rect& s : slabs) {
      byX[s.xhi].first.push_back(s.ySpan());
      byX[s.xlo].second.push_back(s.ySpan());
    }
    for (auto& [x, pm] : byX) {
      sweepLine(x, /*horizontal=*/false, pm.first, pm.second, edges);
    }
  }

  // Stitch directed edges into rings; interior is on the left of every edge.
  ArenaHashMap<Point, ArenaVector<std::size_t>> outgoing;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    outgoing[edges[i].from].push_back(i);
  }
  ArenaVector<char> used(edges.size(), 0);
  std::vector<BoundaryRing> rings;
  ArenaVector<BoundaryEdge> ring;
  for (std::size_t seed = 0; seed < edges.size(); ++seed) {
    if (used[seed]) continue;
    ring.clear();
    std::size_t cur = seed;
    while (!used[cur]) {
      used[cur] = 1;
      ring.push_back({edges[cur].from, edges[cur].to});
      const Point at = edges[cur].to;
      const auto it = outgoing.find(at);
      if (it == outgoing.end()) break;  // should not happen for valid input
      const Point inDir = dirOf(edges[cur]);
      std::size_t best = edges.size();
      int bestScore = 4;
      for (const std::size_t cand : it->second) {
        if (used[cand]) continue;
        const int score = turnScore(inDir, dirOf(edges[cand]));
        if (score < bestScore) {
          bestScore = score;
          best = cand;
        }
      }
      if (best == edges.size()) break;  // ring closed
      cur = best;
    }
    // Merge collinear consecutive edges, including across the wrap point.
    BoundaryRing merged;
    merged.reserve(ring.size());
    for (const BoundaryEdge& e : ring) {
      if (!merged.empty()) {
        BoundaryEdge& last = merged.back();
        const bool collinear = (last.horizontal() && e.horizontal() &&
                                last.from.y == e.from.y) ||
                               (!last.horizontal() && !e.horizontal() &&
                                last.from.x == e.from.x);
        if (collinear && last.to == e.from) {
          last.to = e.to;
          continue;
        }
      }
      merged.push_back(e);
    }
    if (merged.size() >= 2) {
      BoundaryEdge& last = merged.back();
      BoundaryEdge& first = merged.front();
      const bool collinear =
          (last.horizontal() && first.horizontal() &&
           last.from.y == first.from.y) ||
          (!last.horizontal() && !first.horizontal() &&
           last.from.x == first.from.x);
      if (collinear && last.to == first.from) {
        first.from = last.from;
        merged.pop_back();
      }
    }
    if (!merged.empty()) rings.push_back(std::move(merged));
  }
  return rings;
}

}  // namespace pao::reference
