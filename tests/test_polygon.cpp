#include "geom/polygon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "reference.hpp"
#include "util/arena.hpp"

namespace pao::geom {
namespace {

using Ring = reference::BoundaryRing;

/// unionBoundary's flat rings, one vector per ring. Checks the flat layout:
/// ring ends ascend, no ring is empty and the last ends the edge array.
std::vector<Ring> ringsOf(std::span<const Rect> rects) {
  util::ArenaScope scratch(util::scratchArena());
  BoundaryRings flat;
  flat.ends.push_back(99);  // stale contents are replaced
  unionBoundary(rects, flat);
  std::vector<Ring> out;
  std::size_t prevEnd = 0;
  for (std::size_t r = 0; r < flat.size(); ++r) {
    EXPECT_GT(flat.ends[r], prevEnd);
    prevEnd = flat.ends[r];
    out.emplace_back(flat[r].begin(), flat[r].end());
  }
  EXPECT_EQ(prevEnd, flat.edges.size());
  return out;
}

Area ringPerimeter(const Ring& ring) {
  Area p = 0;
  for (const BoundaryEdge& e : ring) p += e.length();
  return p;
}

bool ringClosed(const Ring& ring) {
  for (std::size_t i = 0; i < ring.size(); ++i) {
    if (ring[i].to != ring[(i + 1) % ring.size()].from) return false;
  }
  return true;
}

TEST(UnionSlabs, SingleRect) {
  const std::vector<Rect> slabs = unionSlabs({{0, 0, 10, 10}});
  ASSERT_EQ(slabs.size(), 1u);
  EXPECT_EQ(slabs[0], Rect(0, 0, 10, 10));
}

TEST(UnionSlabs, OverlapCountedOnce) {
  EXPECT_EQ(unionArea({{0, 0, 10, 10}, {5, 0, 15, 10}}), 150);
  EXPECT_EQ(unionArea({{0, 0, 10, 10}, {0, 0, 10, 10}}), 100);
}

TEST(UnionSlabs, DisjointRectsKept) {
  const std::vector<Rect> slabs =
      unionSlabs({{0, 0, 10, 10}, {20, 20, 30, 30}});
  EXPECT_EQ(slabs.size(), 2u);
  EXPECT_EQ(unionArea({{0, 0, 10, 10}, {20, 20, 30, 30}}), 200);
}

TEST(UnionSlabs, VerticalMergeProducesCanonicalSlabs) {
  // Two stacked rects with identical x-span merge into one slab.
  const std::vector<Rect> slabs =
      unionSlabs({{0, 0, 10, 10}, {0, 10, 10, 20}});
  ASSERT_EQ(slabs.size(), 1u);
  EXPECT_EQ(slabs[0], Rect(0, 0, 10, 20));
}

TEST(UnionSlabs, LShape) {
  // L: vertical bar [0,10]x[0,30] + horizontal foot [0,30]x[0,10].
  const std::vector<Rect> slabs =
      unionSlabs({{0, 0, 10, 30}, {0, 0, 30, 10}});
  EXPECT_EQ(unionArea({{0, 0, 10, 30}, {0, 0, 30, 10}}), 500);
  ASSERT_EQ(slabs.size(), 2u);
}

TEST(UnionSlabs, ZeroAreaRectsIgnored) {
  EXPECT_TRUE(unionSlabs({{0, 0, 0, 10}, {5, 5, 5, 5}}).empty());
}

TEST(ConnectedComponents, TouchingCounts) {
  const auto comps = connectedComponents(
      {{0, 0, 10, 10}, {10, 0, 20, 10}, {100, 100, 110, 110}});
  EXPECT_EQ(comps.size(), 2u);
}

TEST(ConnectedComponents, CornerTouchConnects) {
  const auto comps =
      connectedComponents({{0, 0, 10, 10}, {10, 10, 20, 20}});
  EXPECT_EQ(comps.size(), 1u);
}

TEST(UnionBoundary, SquareHasFourEdges) {
  const auto rings = ringsOf(std::vector<Rect>{{0, 0, 100, 100}});
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_EQ(rings[0].size(), 4u);
  EXPECT_TRUE(ringClosed(rings[0]));
  EXPECT_EQ(ringPerimeter(rings[0]), 400);
}

TEST(UnionBoundary, MergedRectsHaveMergedBoundary) {
  // Two abutting squares form a 200x100 rect: still 4 edges.
  const auto rings =
      ringsOf(std::vector<Rect>{{0, 0, 100, 100}, {100, 0, 200, 100}});
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_EQ(rings[0].size(), 4u);
  EXPECT_EQ(ringPerimeter(rings[0]), 600);
}

TEST(UnionBoundary, LShapeHasSixEdges) {
  const auto rings =
      ringsOf(std::vector<Rect>{{0, 0, 10, 30}, {0, 0, 30, 10}});
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_EQ(rings[0].size(), 6u);
  EXPECT_TRUE(ringClosed(rings[0]));
  EXPECT_EQ(ringPerimeter(rings[0]), 120);
}

TEST(UnionBoundary, PlusShapeHasTwelveEdges) {
  const auto rings =
      ringsOf(std::vector<Rect>{{10, 0, 20, 30}, {0, 10, 30, 20}});
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_EQ(rings[0].size(), 12u);
  EXPECT_TRUE(ringClosed(rings[0]));
}

TEST(UnionBoundary, HoleProducesSecondRing) {
  // A square ring: outer 0..40, inner hole 10..30.
  const std::vector<Rect> frame = {
      {0, 0, 40, 10}, {0, 30, 40, 40}, {0, 10, 10, 30}, {30, 10, 40, 30}};
  const auto rings = ringsOf(frame);
  ASSERT_EQ(rings.size(), 2u);
  // One ring has perimeter 160 (outer), the other 80 (hole).
  std::vector<Area> per{ringPerimeter(rings[0]), ringPerimeter(rings[1])};
  std::sort(per.begin(), per.end());
  EXPECT_EQ(per[0], 80);
  EXPECT_EQ(per[1], 160);
}

TEST(UnionBoundary, TwoComponentsTwoRings) {
  const auto rings =
      ringsOf(std::vector<Rect>{{0, 0, 10, 10}, {100, 100, 120, 120}});
  EXPECT_EQ(rings.size(), 2u);
}

TEST(UnionBoundary, InteriorOnLeftOrientation) {
  // For a single square the ring must be counter-clockwise: a bottom edge
  // (y = 0) runs +x, the right edge runs +y, etc.
  const auto rings = ringsOf(std::vector<Rect>{{0, 0, 100, 100}});
  ASSERT_EQ(rings.size(), 1u);
  for (const BoundaryEdge& e : rings[0]) {
    if (e.horizontal() && e.from.y == 0) {
      EXPECT_GT(e.to.x, e.from.x);
    }
    if (e.horizontal() && e.from.y == 100) {
      EXPECT_LT(e.to.x, e.from.x);
    }
    if (!e.horizontal() && e.from.x == 0) {
      EXPECT_LT(e.to.y, e.from.y);
    }
    if (!e.horizontal() && e.from.x == 100) {
      EXPECT_GT(e.to.y, e.from.y);
    }
  }
}

TEST(MaxRects, SingleRectIsItself) {
  const auto rects = maxRects({{0, 0, 10, 10}});
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], Rect(0, 0, 10, 10));
}

TEST(MaxRects, LShapeHasTwoMaxRects) {
  const auto rects = maxRects({{0, 0, 10, 30}, {0, 0, 30, 10}});
  ASSERT_EQ(rects.size(), 2u);
  EXPECT_TRUE(std::find(rects.begin(), rects.end(), Rect(0, 0, 10, 30)) !=
              rects.end());
  EXPECT_TRUE(std::find(rects.begin(), rects.end(), Rect(0, 0, 30, 10)) !=
              rects.end());
}

TEST(MaxRects, PlusShapeHasThreeMaxRects) {
  const auto rects = maxRects({{10, 0, 20, 30}, {0, 10, 30, 20}});
  ASSERT_EQ(rects.size(), 2u);  // vertical bar + horizontal bar are maximal
  EXPECT_TRUE(std::find(rects.begin(), rects.end(), Rect(10, 0, 20, 30)) !=
              rects.end());
  EXPECT_TRUE(std::find(rects.begin(), rects.end(), Rect(0, 10, 30, 20)) !=
              rects.end());
}

TEST(MaxRects, TShape) {
  // T: top bar [0,30]x[20,30], stem [10,20]x[0,30].
  const auto rects = maxRects({{0, 20, 30, 30}, {10, 0, 20, 30}});
  ASSERT_EQ(rects.size(), 2u);
  EXPECT_TRUE(std::find(rects.begin(), rects.end(), Rect(0, 20, 30, 30)) !=
              rects.end());
  EXPECT_TRUE(std::find(rects.begin(), rects.end(), Rect(10, 0, 20, 30)) !=
              rects.end());
}

TEST(MaxRects, OverlappingRectsExtend) {
  // Two overlapping squares: the maximal rects are the two squares, not the
  // overlap region.
  const auto rects = maxRects({{0, 0, 20, 20}, {10, 0, 30, 20}});
  ASSERT_EQ(rects.size(), 1u);  // same y-span -> they fuse into one rect
  EXPECT_EQ(rects[0], Rect(0, 0, 30, 20));
}

/// 1-8 random rects on a coarse lattice, so that abutting, nested,
/// corner-touching and zero-area rects are common. About one set in four
/// starts with a frame of four rects around a hole.
std::vector<Rect> latticeRects(std::mt19937& rng) {
  std::uniform_int_distribution<int> count(1, 8);
  std::uniform_int_distribution<int> lattice(0, 8);
  const auto at = [&] { return Coord{10} * lattice(rng); };
  const std::size_t n = count(rng);
  std::vector<Rect> rects;
  if (n >= 4 && rng() % 2 == 0) {
    Coord xs[4] = {at(), at(), at(), at()};
    Coord ys[4] = {at(), at(), at(), at()};
    std::sort(xs, xs + 4);
    std::sort(ys, ys + 4);
    rects.emplace_back(xs[0], ys[0], xs[3], ys[1]);
    rects.emplace_back(xs[0], ys[2], xs[3], ys[3]);
    rects.emplace_back(xs[0], ys[0], xs[1], ys[3]);
    rects.emplace_back(xs[2], ys[0], xs[3], ys[3]);
  }
  while (rects.size() < n) rects.emplace_back(at(), at(), at(), at());
  std::shuffle(rects.begin(), rects.end(), rng);
  return rects;
}

/// The flat sweeps against the frozen map-based ones: identical slabs and
/// identical rings, edge for edge, on 100k random rect sets.
TEST(UnionBoundaryDifferential, RingsMatchReferenceOnRandomRectSets) {
  std::mt19937 rng(18);
  std::size_t holed = 0;
  for (int i = 0; i < 100000; ++i) {
    const std::vector<Rect> rects = latticeRects(rng);
    ASSERT_EQ(unionSlabs(rects), reference::unionSlabs(rects)) << "set " << i;
    const std::vector<Ring> rings = ringsOf(rects);
    ASSERT_EQ(rings, reference::unionBoundary(rects)) << "set " << i;
    if (rings.size() > 1) ++holed;
  }
  // Multi-ring unions (holes, disjoint parts) are well represented.
  EXPECT_GT(holed, 10000u);

  // A lone rect takes the closed form, which must be the sweep's ring
  // exactly; a degenerate lone rect and an empty input have no ring.
  std::uniform_int_distribution<Coord> at(-1000, 1000);
  std::uniform_int_distribution<Coord> side(1, 1000);
  for (int i = 0; i < 20000; ++i) {
    const Coord x = at(rng);
    const Coord y = at(rng);
    const std::vector<Rect> one = {Rect(x, y, x + side(rng), y + side(rng))};
    ASSERT_EQ(ringsOf(one), reference::unionBoundary(one)) << one[0];
  }
  for (const Rect& r : {Rect(0, 0, 100, 50), Rect(-30, -20, -10, 70),
                        Rect(0, 0, 0, 50), Rect(0, 0, 100, 0),
                        Rect(7, 7, 7, 7), Rect(10, 10, 0, 0)}) {
    const std::vector<Rect> one = {r};
    EXPECT_EQ(ringsOf(one), reference::unionBoundary(one)) << r;
    EXPECT_EQ(ringsOf(one).size(), r.area() != 0 ? 1u : 0u) << r;
  }
  EXPECT_TRUE(ringsOf({}).empty());
  EXPECT_TRUE(reference::unionBoundary({}).empty());
}

/// checkVia merges up to 64 touching same-net rects into one component, so
/// the walker's whole domain is checked too: 9-64 random rects of 0-4
/// steps a side on a coarse 17x17 lattice, dense enough that holes, corner
/// pinches and disjoint parts are common.
TEST(UnionBoundaryDifferential, RingsMatchReferenceOnLargeRectSets) {
  std::mt19937 rng(25);
  std::uniform_int_distribution<int> count(9, 64);
  std::uniform_int_distribution<int> lattice(0, 16);
  std::uniform_int_distribution<int> side(0, 4);
  std::size_t multi = 0;
  std::size_t holed = 0;
  std::size_t pinched = 0;
  for (int i = 0; i < 20000; ++i) {
    std::vector<Rect> rects(count(rng));
    for (Rect& r : rects) {
      const Coord x = 10 * lattice(rng);
      const Coord y = 10 * lattice(rng);
      r = Rect(x, y, x + 10 * side(rng), y + 10 * side(rng));
    }
    const std::vector<Ring> rings = ringsOf(rects);
    ASSERT_EQ(rings, reference::unionBoundary(rects)) << "set " << i;
    if (rings.size() > 1) ++multi;
    // A hole's ring starts with its bottom, which runs -x; a corner pinch
    // is a vertex two edges leave.
    std::vector<Point> starts;
    bool hole = false;
    for (const Ring& ring : rings) {
      hole = hole || ring[0].to.x < ring[0].from.x;
      for (const BoundaryEdge& e : ring) starts.push_back(e.from);
    }
    std::sort(starts.begin(), starts.end());
    if (hole) ++holed;
    if (std::adjacent_find(starts.begin(), starts.end()) != starts.end()) {
      ++pinched;
    }
  }
  EXPECT_GT(multi, 10000u);
  EXPECT_GT(holed, 2500u);
  EXPECT_GT(pinched, 8000u);
}

}  // namespace
}  // namespace pao::geom
