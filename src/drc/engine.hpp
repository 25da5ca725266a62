// The DRC engine: owns a region-query context of fixed/routed shapes and
// answers two kinds of questions:
//   1. incremental — "would dropping this via / wire here be DRC-clean?"
//      (the validity oracle of Algorithm 1 and the isDRCClean predicate of
//      Algorithm 3), and
//   2. batch — "how many violations does the current layout have?"
//      (the #DRC metric of Experiment 3).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "db/tech.hpp"
#include "drc/checks.hpp"
#include "drc/region_query.hpp"
#include "util/arena.hpp"

namespace pao::drc {

class DrcEngine {
 public:
  explicit DrcEngine(const db::Tech& tech);

  RegionQuery& region() { return region_; }
  const RegionQuery& region() const { return region_; }
  const db::Tech& tech() const { return *tech_; }

  /// Shapes a via instance contributes (bottom enclosure, cut, top
  /// enclosure), for use as `extra` context in pairwise checks.
  std::array<Shape, 3> viaShapes(const db::ViaDef& via, geom::Point p,
                                 int net, bool fixed = false) const;

  /// All violations caused by dropping `via` at `p` connecting `net`.
  /// `extra` shapes are treated as additional context (e.g. a neighboring
  /// candidate via when evaluating DP edge compatibility).
  std::vector<Violation> checkVia(const db::ViaDef& via, geom::Point p,
                                  int net,
                                  std::span<const Shape> extra = {}) const;
  bool isViaClean(const db::ViaDef& via, geom::Point p, int net,
                  std::span<const Shape> extra = {}) const {
    return checkVia(via, p, net, extra).empty();
  }

  /// Spacing/short violations caused by a candidate wire rect.
  std::vector<Violation> checkWire(const geom::Rect& r, int layer, int net,
                                   std::span<const Shape> extra = {}) const;

  /// Violations between two candidate vias placed together (each assumed
  /// individually clean): checks B against the context plus A's shapes.
  std::vector<Violation> checkViaPair(const db::ViaDef& viaA, geom::Point pa,
                                      int netA, const db::ViaDef& viaB,
                                      geom::Point pb, int netB) const;

  /// Full-layout batch check over everything in the region query. Pairs of
  /// fixed shapes are skipped (library geometry is assumed self-clean).
  /// With numThreads != 1 the work is sharded by layer-local shape ranges
  /// and per-net components over the executor; the result is canonically
  /// sorted (violationLess) in every mode, so thread count never changes
  /// the returned vector.
  std::vector<Violation> checkAll(int numThreads = 1) const;

 private:
  /// Same-net shapes on `layer` connected (transitively touching) to `seed`,
  /// including `seed` itself — the merged component for min-step/EOL/area.
  /// Written to `comp` (cleared first) in discovery order.
  void mergedComponent(const geom::Rect& seed, int layer, int net,
                       std::span<const Shape> extra,
                       util::ArenaVector<geom::Rect>& comp) const;

  /// Appends the MINSTEP then the EOL violations of one merged `net`
  /// component on `layer` to `out`. Both rules walk the same boundary, so
  /// it is extracted once. EOL sees the shapes on the layer, from the
  /// region and `extra`, that conflict with `net` within maxSpacingHalo of
  /// the component's bounding box, which contains every EOL region.
  void checkEdgeRules(const db::Layer& layer, std::span<const geom::Rect> comp,
                      int net, std::span<const Shape> extra,
                      std::vector<Violation>& out) const;

  template <typename Fn>
  void queryWithExtra(int layer, const geom::Rect& box,
                      std::span<const Shape> extra, Fn&& fn) const {
    region_.query(layer, box, fn);
    for (const Shape& s : extra) {
      if (s.layer == layer && s.rect.intersects(box)) fn(s);
    }
  }

  const db::Tech* tech_;
  RegionQuery region_;
};

}  // namespace pao::drc
