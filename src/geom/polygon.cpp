#include "geom/polygon.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "util/arena.hpp"

namespace pao::geom {

// These primitives run inside the DRC hot loop (checkVia extracts one
// unionBoundary per via enclosure, shared by min-step and EOL), so all
// internal scratch lives in the calling thread's arena, and every sweep is a
// sorted flat vector rather than a node-based map: interval lists, sweep
// events and the edge stitching table alike. unionBoundary touches no heap
// at all: its rings go to caller storage in the same arena, and a lone
// rectangle (every via enclosure checked on its own) gets its ring in
// closed form, with no sweep. The other functions return heap containers.

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

namespace {

struct RawEdge {
  Point from;
  Point to;
};

/// One end of a slab side on a scanline at `fixed`: the coverage along the
/// line changes by `delta` at `pos`.
struct SweepEvent {
  Coord fixed;
  Coord pos;
  int delta;
};

/// Sweeps the scanlines of `events` (one per distinct `fixed`, ascending)
/// and appends their net boundary edges in scanline then position order.
/// Coverage +1 emits a forward edge and -1 a reversed one. Events at one
/// position are summed, zero-sum positions included: an edge splits there,
/// and the ring merge joins it again.
void sweepLines(ArenaVector<SweepEvent>& events, bool horizontal,
                ArenaVector<RawEdge>& out) {
  // Events with equal (fixed, pos) are summed, so their relative order is
  // immaterial and an unstable sort is enough.
  std::sort(events.begin(), events.end(),
            [](const SweepEvent& a, const SweepEvent& b) {
              return a.fixed < b.fixed || (a.fixed == b.fixed && a.pos < b.pos);
            });
  std::size_t i = 0;
  while (i < events.size()) {
    const Coord fixed = events[i].fixed;
    int cover = 0;
    Coord start = 0;
    int prevSign = 0;
    while (i < events.size() && events[i].fixed == fixed) {
      const Coord pos = events[i].pos;
      int delta = 0;
      for (; i < events.size() && events[i].fixed == fixed &&
             events[i].pos == pos;
           ++i) {
        delta += events[i].delta;
      }
      if (prevSign != 0 && pos > start) {
        const Point a = horizontal ? Point{start, fixed} : Point{fixed, start};
        const Point b = horizontal ? Point{pos, fixed} : Point{fixed, pos};
        if (prevSign > 0) {
          out.push_back({a, b});  // bottom (+x) or left-swept equivalent
        } else {
          out.push_back({b, a});  // top (-x)
        }
      }
      cover += delta;
      start = pos;
      prevSign = cover > 0 ? 1 : (cover < 0 ? -1 : 0);
    }
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

void unionBoundary(std::span<const Rect> rects, BoundaryRings& out) {
  out.edges.clear();
  out.ends.clear();
  if (rects.size() == 1 && rects[0].area() != 0) {
    // The ring the sweep below emits for one rect: bottom, right, top, left.
    const Rect& r = rects[0];
    out.edges.push_back({{r.xlo, r.ylo}, {r.xhi, r.ylo}});
    out.edges.push_back({{r.xhi, r.ylo}, {r.xhi, r.yhi}});
    out.edges.push_back({{r.xhi, r.yhi}, {r.xlo, r.yhi}});
    out.edges.push_back({{r.xlo, r.yhi}, {r.xlo, r.ylo}});
    out.ends.push_back(4);
    return;
  }
  ArenaVector<Rect> slabs;
  unionSlabsInto(rects, slabs);
  if (slabs.empty()) return;

  ArenaVector<RawEdge> edges;
  ArenaVector<SweepEvent> events;
  events.reserve(slabs.size() * 4);
  edges.reserve(slabs.size() * 8);
  // Horizontal boundary edges: slab bottoms count +1 and tops -1 along x.
  for (const Rect& s : slabs) {
    events.push_back({s.ylo, s.xlo, 1});
    events.push_back({s.ylo, s.xhi, -1});
    events.push_back({s.yhi, s.xlo, -1});
    events.push_back({s.yhi, s.xhi, 1});
  }
  sweepLines(events, /*horizontal=*/true, edges);
  // Vertical boundary edges: rights count +1 (direction +y, interior left),
  // lefts -1 (direction -y).
  events.clear();
  for (const Rect& s : slabs) {
    events.push_back({s.xhi, s.ylo, 1});
    events.push_back({s.xhi, s.yhi, -1});
    events.push_back({s.xlo, s.ylo, -1});
    events.push_back({s.xlo, s.yhi, 1});
  }
  sweepLines(events, /*horizontal=*/false, edges);

  // Stitch directed edges into rings; interior is on the left of every edge.
  // The outgoing edges of a point are a run of `byFrom`, which orders edge
  // indices by (from, index), so a run lists them in index order.
  ArenaVector<std::uint32_t> byFrom(edges.size());
  std::iota(byFrom.begin(), byFrom.end(), 0u);
  std::sort(byFrom.begin(), byFrom.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return edges[a].from < edges[b].from ||
                     (edges[a].from == edges[b].from && a < b);
            });
  ArenaVector<char> used(edges.size(), 0);
  // Merged rings never hold more edges than the raw ones they come from.
  out.edges.reserve(edges.size());
  // Whether `b` goes on from the end of `a` along the same line.
  const auto continues = [](const BoundaryEdge& a, const BoundaryEdge& b) {
    return a.to == b.from && a.horizontal() == b.horizontal() &&
           (a.horizontal() ? a.from.y == b.from.y : a.from.x == b.from.x);
  };
  for (std::size_t seed = 0; seed < edges.size(); ++seed) {
    if (used[seed]) continue;
    // Collinear consecutive edges merge as the ring is walked.
    const std::size_t first = out.edges.size();
    std::size_t cur = seed;
    while (!used[cur]) {
      used[cur] = 1;
      const BoundaryEdge e{edges[cur].from, edges[cur].to};
      if (out.edges.size() > first && continues(out.edges.back(), e)) {
        out.edges.back().to = e.to;
      } else {
        out.edges.push_back(e);
      }
      const Point at = edges[cur].to;
      const auto next = std::lower_bound(
          byFrom.begin(), byFrom.end(), at,
          [&](std::uint32_t e, const Point& p) { return edges[e].from < p; });
      const Point inDir = dirOf(edges[cur]);
      std::size_t best = edges.size();
      int bestScore = 4;
      for (auto it = next; it != byFrom.end() && edges[*it].from == at; ++it) {
        if (used[*it]) continue;
        const int score = turnScore(inDir, dirOf(edges[*it]));
        if (score < bestScore) {
          bestScore = score;
          best = *it;
        }
      }
      if (best == edges.size()) break;  // ring closed (or a dead end)
      cur = best;
    }
    // ...including across the wrap point.
    if (out.edges.size() - first >= 2) {
      const BoundaryEdge last = out.edges.back();
      BoundaryEdge& head = out.edges[first];
      if (continues(last, head)) {
        head.from = last.from;
        out.edges.pop_back();
      }
    }
    out.ends.push_back(static_cast<std::uint32_t>(out.edges.size()));
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
