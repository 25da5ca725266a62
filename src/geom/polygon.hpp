// Rectilinear polygon operations built on rectangle unions: slab
// decomposition, merged area, boundary extraction (edge rings traced on a
// compressed grid), and maximal-rectangle decomposition.
//
// These are the geometry primitives behind two parts of the paper:
//  - shape-center coordinates are defined on the *maximal rectangles* of a
//    polygonal pin (Sec. II-C), and
//  - the min-step design rule check operates on the *merged boundary* of the
//    pin shape plus a candidate via enclosure (Fig. 3).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/geom.hpp"
#include "util/arena.hpp"

namespace pao::geom {

/// Decomposes the union of `rects` into disjoint rects using horizontal slab
/// sweep. Vertically adjacent slabs with identical x-intervals are merged, so
/// the output is canonical for a given union region.
std::vector<Rect> unionSlabs(std::vector<Rect> rects);

/// Total area of the union of `rects` (overlaps counted once).
Area unionArea(const std::vector<Rect>& rects);

/// Groups rects into connected components; rects that touch (share an edge or
/// corner point) are connected. Returns one vector of rects per component.
std::vector<std::vector<Rect>> connectedComponents(
    const std::vector<Rect>& rects);

/// One directed edge of a polygon boundary ring. Rings are oriented so the
/// polygon interior lies to the LEFT of each directed edge: bottom edges run
/// +x, right edges run +y, top edges run -x, left edges run -y for an outer
/// ring (holes wind the opposite way).
struct BoundaryEdge {
  Point from;
  Point to;

  Coord length() const { return manhattanDist(from, to); }
  bool horizontal() const { return from.y == to.y; }

  friend bool operator==(const BoundaryEdge&, const BoundaryEdge&) = default;
};

/// Boundary rings stored flat in the calling thread's scratch arena: ring r
/// is edges[ends[r - 1], ends[r]), the first starting at 0. In a ring, edge
/// i ends where edge i+1 starts and the last ends at the first's start.
struct BoundaryRings {
  util::ArenaVector<BoundaryEdge> edges;
  util::ArenaVector<std::uint32_t> ends;

  std::size_t size() const { return ends.size(); }
  std::span<const BoundaryEdge> operator[](std::size_t r) const {
    const std::size_t first = r == 0 ? 0 : ends[r - 1];
    return {edges.data() + first, ends[r] - first};
  }
};

/// Writes all boundary rings (outer boundaries and holes) of the union of
/// `rects` to `out`, replacing its contents. Rects that are empty or have
/// zero area are ignored. Collinear consecutive edges are merged, and
/// unions that touch only at a corner are separate rings (each ring turns
/// sharpest-left first). Order contract, which checkMinStep's scan relies
/// on: each ring begins with its least horizontal edge by (y, min x), and
/// the rings ascend strictly by that edge; a lone rect's ring is bottom,
/// right, top, left. The caller must hold an ArenaScope: `out` and the
/// walk's scratch live in it, so the rings stay valid until the scope ends.
void unionBoundary(std::span<const Rect> rects, BoundaryRings& out);

/// Maximal rectangles of the union of `rects`: every decomposition slab is
/// extended as far as possible in the perpendicular direction while staying
/// covered, in both sweep directions, and the resulting rect set is deduped.
/// For the L/T/U/cross shapes typical of standard-cell pins this produces
/// exactly the set of all maximal rectangles.
std::vector<Rect> maxRects(const std::vector<Rect>& rects);

}  // namespace pao::geom
