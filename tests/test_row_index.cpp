// db::RowIndex against a brute-force scan of the design: after random move,
// orient, add and remove sequences, the incrementally maintained index must
// list the same rows, owners and per-row (x, index) order as a fresh scan,
// and clusters built from it must equal the clusters of a fresh build.
// The mixed preset's multi-height cells and off-row moves make rows appear
// and empty, including rows that only a taller cell reaches over.
#include "db/row_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "benchgen/testcase.hpp"
#include "pao/cluster_select.hpp"
#include "reference.hpp"

namespace pao::db {
namespace {

struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 17;
  }
};

/// The index a scan of every instance against every row gives.
std::vector<RowIndex::Row> bruteRows(const Design& design) {
  std::set<Coord> ys;
  for (const Instance& inst : design.instances) ys.insert(inst.origin.y);
  std::vector<RowIndex::Row> rows;
  for (const Coord y : ys) {
    RowIndex::Row row;
    row.y = y;
    for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
      const Instance& inst = design.instances[i];
      const geom::Rect bbox = inst.bbox();
      if (inst.origin.y == y) ++row.owners;
      if (bbox.ylo <= y && y < std::max(bbox.yhi, bbox.ylo + 1)) {
        row.entries.push_back({inst.origin.x, i});
      }
    }
    std::sort(row.entries.begin(), row.entries.end());
    rows.push_back(std::move(row));
  }
  return rows;
}

void expectMatchesScan(const RowIndex& index, const Design& design) {
  const std::vector<RowIndex::Row> want = bruteRows(design);
  ASSERT_EQ(index.rows().size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    const RowIndex::Row& got = index.rows()[r];
    ASSERT_EQ(got.y, want[r].y) << "row " << r;
    EXPECT_EQ(got.owners, want[r].owners) << "row y " << got.y;
    ASSERT_EQ(got.entries, want[r].entries) << "row y " << got.y;
  }
  // The runs of the maintained rows are the clusters of a fresh build.
  std::vector<std::vector<int>> clusters;
  for (const RowIndex::Row& row : index.rows()) {
    core::splitRow(design, row, clusters);
  }
  EXPECT_EQ(clusters, reference::buildClusters(design));
}

/// One random edit of `design`, applied through the index's erase/insert
/// protocol. Moves go to a placement row or, one in three, half a row off
/// it; every fourth pick re-moves an instance left off-row, so off-row
/// rows appear and empty again.
void randomEdit(Design& design, RowIndex& index, Lcg& rng,
                std::vector<int>& offRow, int& added) {
  std::vector<Coord> touched;
  const int n = static_cast<int>(design.instances.size());
  const std::uint64_t kind = rng.next() % 10;
  if (kind == 0) {
    Instance clone = design.instances[rng.next() % n];
    clone.name = "row_index_clone_" + std::to_string(added++);
    const Row& row = design.rows[rng.next() % design.rows.size()];
    clone.origin = {row.origin.x + static_cast<Coord>(rng.next() % 40) *
                                       row.siteWidth,
                    row.origin.y};
    const int idx = design.addInstance(clone);
    index.insert(design, idx, touched);
    return;
  }
  if (kind == 1) {
    const int idx = static_cast<int>(rng.next() % n);
    index.erase(design, idx, touched);
    design.removeInstance(idx);
    index.renumberAfterRemove(idx);
    std::erase(offRow, idx);
    for (int& i : offRow) {
      if (i > idx) --i;
    }
    return;
  }
  int idx = static_cast<int>(rng.next() % n);
  if (!offRow.empty() && rng.next() % 4 == 0) {
    idx = offRow.back();
    offRow.pop_back();
  }
  index.erase(design, idx, touched);
  if (kind == 2) {
    static constexpr geom::Orient kOrients[] = {
        geom::Orient::R0, geom::Orient::MX, geom::Orient::MY,
        geom::Orient::R180, geom::Orient::R90};
    design.setInstanceOrient(idx, kOrients[rng.next() % 5]);
  } else {
    const Row& row = design.rows[rng.next() % design.rows.size()];
    Coord y = row.origin.y;
    if (rng.next() % 3 == 0) {
      y += row.height / 2;
      offRow.push_back(idx);
    }
    design.moveInstance(idx, {row.origin.x + static_cast<Coord>(
                                                 rng.next() % 60) *
                                                 row.siteWidth,
                              y});
  }
  index.insert(design, idx, touched);
}

TEST(RowIndex, FreshBuildMatchesScan) {
  const benchgen::Testcase tc =
      benchgen::generate(benchgen::mixedSpec(), 0.02);
  expectMatchesScan(RowIndex(*tc.design), *tc.design);
}

TEST(RowIndex, RandomEditsMatchScan) {
  benchgen::Testcase tc = benchgen::generate(benchgen::mixedSpec(), 0.02);
  Design& design = *tc.design;
  ASSERT_FALSE(design.rows.empty());
  RowIndex index(design);
  Lcg rng{23};
  std::vector<int> offRow;
  int added = 0;
  for (int step = 0; step < 300; ++step) {
    randomEdit(design, index, rng, offRow, added);
    if (step % 10 == 9) {
      SCOPED_TRACE("step " + std::to_string(step));
      expectMatchesScan(index, design);
    }
  }
}

TEST(RowIndex, RowCreatedUnderATallCellListsIt) {
  benchgen::Testcase tc = benchgen::generate(benchgen::mixedSpec(), 0.02);
  Design& design = *tc.design;
  // A cell at least two rows tall, and a single-height cell moved to a y
  // strictly inside its span: the new row must list the tall cell.
  int tall = -1;
  int small = -1;
  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const geom::Rect bbox = design.instances[i].bbox();
    if (tall < 0 && bbox.height() >= 2 * design.rows.front().height) tall = i;
    if (small < 0 && bbox.height() == design.rows.front().height) small = i;
  }
  ASSERT_GE(tall, 0);
  ASSERT_GE(small, 0);
  RowIndex index(design);
  std::vector<Coord> touched;
  const geom::Rect span = design.instances[tall].bbox();
  const Coord y = span.ylo + design.rows.front().height / 2;
  index.erase(design, small, touched);
  design.moveInstance(small, {span.xhi, y});
  index.insert(design, small, touched);
  const RowIndex::Row* row = index.find(y);
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(std::ranges::any_of(row->entries, [&](const RowIndex::Entry& e) {
    return e.inst == tall;
  }));
  EXPECT_NE(std::find(touched.begin(), touched.end(), y), touched.end());
  expectMatchesScan(index, design);
}

TEST(RowIndex, OverlappingMatchesLinearScan) {
  benchgen::Testcase tc = benchgen::generate(benchgen::mixedSpec(), 0.02);
  const Design& design = *tc.design;
  const RowIndex index(design);
  const geom::Rect die = design.dieArea;
  Lcg rng{5};
  const auto coord = [&](Coord lo, Coord hi) {
    return lo + static_cast<Coord>(rng.next() %
                                   static_cast<std::uint64_t>(hi - lo + 1));
  };
  for (int q = 0; q < 200; ++q) {
    // Normalized by the Rect constructor, as the serve query's region is;
    // some are degenerate (zero width) and some lie off the die.
    const Coord x1 = coord(die.xlo - 5000, die.xhi + 5000);
    const Coord y1 = coord(die.ylo - 5000, die.yhi + 5000);
    const Coord x2 = q % 7 == 0 ? x1 : coord(die.xlo - 5000, die.xhi + 5000);
    const Coord y2 = coord(die.ylo - 5000, die.yhi + 5000);
    const geom::Rect region(x1, y1, x2, y2);
    std::vector<int> want;
    for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
      const geom::Rect bbox = design.instances[i].bbox();
      if (bbox.xlo < region.xhi && region.xlo < bbox.xhi &&
          bbox.ylo < region.yhi && region.ylo < bbox.yhi) {
        want.push_back(i);
      }
    }
    EXPECT_EQ(index.overlapping(design, region), want) << "query " << q;
  }
  EXPECT_TRUE(index.overlapping(design, geom::Rect()).empty());
}

}  // namespace
}  // namespace pao::db
