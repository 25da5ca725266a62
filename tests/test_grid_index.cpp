#include "geom/grid_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <vector>

#include "reference_grid_index.hpp"

namespace pao::geom {
namespace {

TEST(GridIndex, EmptyQuery) {
  GridIndex<int> idx;
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_TRUE(idx.queryValues({0, 0, 100, 100}).empty());
}

TEST(GridIndex, InsertAndHit) {
  GridIndex<int> idx;
  idx.insert({0, 0, 10, 10}, 1);
  idx.insert({100, 100, 110, 110}, 2);
  EXPECT_EQ(idx.size(), 2u);
  const auto hits = idx.queryValues({5, 5, 6, 6});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1);
}

TEST(GridIndex, TouchingCountsAsHit) {
  GridIndex<int> idx;
  idx.insert({0, 0, 10, 10}, 7);
  EXPECT_EQ(idx.queryValues({10, 10, 20, 20}).size(), 1u);
  EXPECT_TRUE(idx.queryValues({11, 11, 20, 20}).empty());
}

TEST(GridIndex, LargeItemSpanningManyBinsReportedOnce) {
  GridIndex<int> idx(16);  // tiny bins force multi-bin items
  idx.insert({0, 0, 1000, 1000}, 42);
  const auto hits = idx.queryValues({0, 0, 1000, 1000});
  EXPECT_EQ(hits.size(), 1u);
}

TEST(GridIndex, NegativeCoordinates) {
  GridIndex<int> idx(64);
  idx.insert({-100, -100, -50, -50}, 1);
  idx.insert({-10, -10, 10, 10}, 2);
  EXPECT_EQ(idx.queryValues({-80, -80, -60, -60}).size(), 1u);
  EXPECT_EQ(idx.queryValues({-200, -200, 200, 200}).size(), 2u);
}

TEST(GridIndex, ClearResets) {
  GridIndex<int> idx;
  idx.insert({0, 0, 1, 1}, 1);
  idx.clear();
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_TRUE(idx.queryValues({0, 0, 10, 10}).empty());
}

/// Property: results always match a brute-force scan.
TEST(GridIndex, MatchesBruteForce) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<Coord> pos(-5000, 5000);
  std::uniform_int_distribution<Coord> size(1, 800);

  GridIndex<std::size_t> idx(512);
  std::vector<Rect> rects;
  for (std::size_t i = 0; i < 500; ++i) {
    const Coord x = pos(rng);
    const Coord y = pos(rng);
    const Rect r{x, y, x + size(rng), y + size(rng)};
    rects.push_back(r);
    idx.insert(r, i);
  }
  for (int q = 0; q < 100; ++q) {
    const Coord x = pos(rng);
    const Coord y = pos(rng);
    const Rect query{x, y, x + size(rng), y + size(rng)};
    auto got = idx.queryValues(query);
    std::sort(got.begin(), got.end());
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < rects.size(); ++i) {
      if (rects[i].intersects(query)) want.push_back(i);
    }
    EXPECT_EQ(got, want);
  }
}

TEST(GridIndex, RejectsCellSizeThatIsNotAPowerOfTwo) {
  EXPECT_THROW(GridIndex<int>(3000), std::invalid_argument);
  EXPECT_THROW(GridIndex<int>(0), std::invalid_argument);
  EXPECT_THROW(GridIndex<int>(-4096), std::invalid_argument);
  EXPECT_NO_THROW(GridIndex<int>(1 << 14));
  EXPECT_THROW(GridIndex<int>(std::vector<GridIndex<int>::Entry>{}, 100),
               std::invalid_argument);
}

/// Rects far apart (near +-2^31 and +-2^40) are binned at a coarser cell:
/// queries stay exact and the bins never span the gaps between them.
TEST(GridIndex, SparseCoordinatesStayCompact) {
  const Coord far[] = {Coord{1} << 31, -(Coord{1} << 31), Coord{1} << 40,
                       -(Coord{1} << 40)};
  std::vector<GridIndex<int>::Entry> entries;
  for (const Coord x : far) {
    for (const Coord y : far) {
      entries.push_back({{x, y, x + 500, y + 300},
                         static_cast<int>(entries.size())});
    }
  }
  GridIndex<int> incremental;
  for (const auto& e : entries) incremental.insert(e.bbox, e.value);
  const GridIndex<int> bulk(entries);
  const std::size_t budget = 16 * entries.size() + 4096;
  const GridIndex<int>* const both[] = {&incremental, &bulk};
  for (const GridIndex<int>* idx : both) {
    EXPECT_LE(idx->binCount(), budget);
    for (const auto& e : entries) {
      EXPECT_EQ(idx->queryValues(e.bbox.bloat(100)),
                std::vector<int>{e.value});
      EXPECT_TRUE(idx->queryValues(e.bbox.translate(1000, 0)).empty());
    }
    std::vector<int> all = idx->queryValues(
        {-(Coord{1} << 41), -(Coord{1} << 41), Coord{1} << 41,
         Coord{1} << 41});
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), entries.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(all[i], static_cast<int>(i));
    }
  }
}

/// Random rects around the origin, `spread` cells of `cell` each way:
/// negative coordinates, empty and zero-width rects, rects snapped to cell
/// lines so that they touch, and rects spanning several cells.
std::vector<Rect> randomRects(std::mt19937& rng, Coord cell, int count,
                              Coord spread) {
  std::uniform_int_distribution<Coord> pos(-spread * cell, spread * cell);
  std::uniform_int_distribution<Coord> size(0, 3 * cell);
  std::uniform_int_distribution<int> kind(0, 9);
  std::vector<Rect> out;
  for (int i = 0; i < count; ++i) {
    Coord x = pos(rng);
    Coord y = pos(rng);
    const int k = kind(rng);
    if (k == 0) {  // empty
      out.push_back(Rect::rawRect(x, y, x - 1 - size(rng), y + size(rng)));
      continue;
    }
    if (k <= 2) {  // on cell lines: touches its neighbours
      x = x / cell * cell;
      y = y / cell * cell;
      out.emplace_back(x, y, x + cell * (1 + k), y + cell);
      continue;
    }
    const Coord w = k == 3 ? 0 : size(rng);  // k == 3: zero width
    out.emplace_back(x, y, x + w, y + size(rng));
  }
  return out;
}

/// The production index against the frozen hash-bin one: incremental and
/// bulk fills, at cell sizes 16 to 16384, report the same values in the
/// same order for every query. The fills stay within the cell budget, so the
/// requested cell is the one in use.
TEST(GridIndexDifferential, SameValuesInSameOrderAsReference) {
  std::mt19937 rng(18);
  for (Coord cell = 16; cell <= 16384; cell *= 4) {
    for (int round = 0; round < 8; ++round) {
      const std::vector<Rect> rects = randomRects(rng, cell, 300, 30);
      reference::GridIndex<int> want(cell);
      GridIndex<int> incremental(cell);
      std::vector<GridIndex<int>::Entry> entries;
      std::uniform_int_distribution<Coord> pos(-34 * cell, 34 * cell);
      std::uniform_int_distribution<Coord> size(0, 6 * cell);
      const auto compare = [&](const GridIndex<int>& got) {
        for (int q = 0; q < 40; ++q) {
          const Coord x = pos(rng);
          const Coord y = pos(rng);
          const Rect query =
              q == 0 ? Rect(-40 * cell, -40 * cell, 40 * cell, 40 * cell)
                     : Rect(x, y, x + size(rng), y + size(rng));
          ASSERT_EQ(got.queryValues(query), want.queryValues(query))
              << "cell " << cell << " round " << round << " query " << q;
        }
      };
      for (std::size_t i = 0; i < rects.size(); ++i) {
        want.insert(rects[i], static_cast<int>(i));
        incremental.insert(rects[i], static_cast<int>(i));
        entries.push_back({rects[i], static_cast<int>(i)});
        // Interleave queries with the incremental fill, as the router does.
        if (i % 50 == 49) compare(incremental);
      }
      compare(incremental);
      compare(GridIndex<int>(entries, cell));
    }
  }
}

/// Spread far beyond the cell budget, the index coarsens its cell: the
/// query order may then differ from the reference's, the values may not.
TEST(GridIndexDifferential, CoarsenedCellKeepsTheSameValues) {
  std::mt19937 rng(1018);
  for (Coord cell = 16; cell <= 16384; cell *= 4) {
    const std::vector<Rect> rects = randomRects(rng, cell, 200, 5000);
    reference::GridIndex<int> want(cell);
    GridIndex<int> incremental(cell);
    std::vector<GridIndex<int>::Entry> entries;
    for (std::size_t i = 0; i < rects.size(); ++i) {
      want.insert(rects[i], static_cast<int>(i));
      incremental.insert(rects[i], static_cast<int>(i));
      entries.push_back({rects[i], static_cast<int>(i)});
    }
    const GridIndex<int> bulk(entries, cell);
    std::uniform_int_distribution<Coord> pos(-5000 * cell, 5000 * cell);
    std::uniform_int_distribution<Coord> size(0, 40 * cell);
    for (int q = 0; q < 100; ++q) {
      const Coord x = pos(rng);
      const Coord y = pos(rng);
      const Rect query(x, y, x + size(rng), y + size(rng));
      std::vector<int> expected = want.queryValues(query);
      std::sort(expected.begin(), expected.end());
      const GridIndex<int>* const both[] = {&incremental, &bulk};
      for (const GridIndex<int>* idx : both) {
        EXPECT_LE(idx->binCount(), 16 * rects.size() + 4096);
        std::vector<int> got = idx->queryValues(query);
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, expected) << "cell " << cell << " query " << q;
      }
    }
  }
}

}  // namespace
}  // namespace pao::geom
