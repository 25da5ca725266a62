// The DRC engine: owns a region-query context of fixed/routed shapes and
// answers two kinds of questions:
//   1. incremental — "would dropping this via / wire here be DRC-clean?"
//      (the validity oracle of Algorithm 1 and the isDRCClean predicate of
//      Algorithm 3), and
//   2. batch — "how many violations does the current layout have?"
//      (the #DRC metric of Experiment 3).
// checkVia also takes a fixed context it does not own: any type with
// RegionQuery's query(layer, box, fn), as a template argument.
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "db/tech.hpp"
#include "drc/checks.hpp"
#include "drc/region_query.hpp"
#include "geom/polygon.hpp"
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

  /// All violations caused by dropping `via` at `p` connecting `net`, in
  /// violationLess order, checked against the fixed context `fixed`.
  /// `extra` shapes are treated as additional context (e.g. a neighboring
  /// candidate via when evaluating DP edge compatibility). When `reach` is
  /// given, the bbox of every box the check queried is merged into it: the
  /// result depends on no shape outside it. A check whose merged component
  /// hit its size cap may depend on the order shapes are reported in, so it
  /// widens `reach` to the whole plane.
  template <typename Fixed>
  std::vector<Violation> checkVia(const Fixed& fixed, const db::ViaDef& via,
                                  geom::Point p, int net,
                                  std::span<const Shape> extra = {},
                                  geom::Rect* reach = nullptr) const {
    std::vector<Violation> out;
    const auto checkMetalRect = [&](const geom::Rect& enc, int layerIdx) {
      const db::Layer& layer = tech_->layer(layerIdx);
      const Shape cand{enc, layerIdx, net, ShapeKind::kVia, false};
      const geom::Coord halo = maxSpacingHalo(layer);

      // Spacing / shorts against conflicting context shapes.
      queryWithExtra(
          fixed, layerIdx, enc.bloat(halo), extra,
          [&](const Shape& s) {
            if (auto v = checkSpacingPair(layer, cand, s)) out.push_back(*v);
          },
          reach);

      // Min step and EOL over the merged same-net component. Only
      // violations in the via's vicinity are attributed to it — a long pin
      // bar may carry pre-existing artifacts far away that the via did not
      // cause.
      const geom::Coord window =
          halo + (layer.minStep ? layer.minStep->minStepLength : 0);
      const geom::Rect vicinity = enc.bloat(window);
      util::ArenaScope scratch(util::scratchArena());
      util::ArenaVector<geom::Rect> comp;
      mergedComponent(fixed, enc, layerIdx, net, extra, comp, reach);
      const auto first = static_cast<std::ptrdiff_t>(out.size());
      checkEdgeRules(fixed, layer, comp, net, extra, out, reach);
      const auto far = [&](const Violation& v) {
        return !v.bbox.intersects(vicinity);
      };
      out.erase(std::remove_if(out.begin() + first, out.end(), far),
                out.end());
    };

    checkMetalRect(via.botEncAt(p), via.botLayer);
    checkMetalRect(via.topEncAt(p), via.topLayer);

    // Cut spacing.
    const db::Layer& cutLayer = tech_->layer(via.cutLayer);
    const Shape cutCand{via.cutAt(p), via.cutLayer, net, ShapeKind::kVia,
                        false};
    queryWithExtra(
        fixed, via.cutLayer, cutCand.rect.bloat(cutLayer.cutSpacing), extra,
        [&](const Shape& s) {
          if (auto v = checkCutSpacingPair(cutLayer, cutCand, s)) {
            out.push_back(*v);
          }
        },
        reach);
    // Canonical order: candidates come in the fixed context's order.
    sortViolations(out);
    return out;
  }
  /// checkVia against the engine's own region.
  std::vector<Violation> checkVia(const db::ViaDef& via, geom::Point p,
                                  int net, std::span<const Shape> extra = {},
                                  geom::Rect* reach = nullptr) const {
    return checkVia(region_, via, p, net, extra, reach);
  }
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
  /// Same-net shapes of `fixed` and `extra` on `layer` connected
  /// (transitively touching) to `seed`, including `seed` itself — the merged
  /// component for min-step/EOL/area. Written to `comp` (cleared first) in
  /// discovery order.
  template <typename Fixed>
  void mergedComponent(const Fixed& fixed, const geom::Rect& seed, int layer,
                       int net, std::span<const Shape> extra,
                       util::ArenaVector<geom::Rect>& comp,
                       geom::Rect* reach) const {
    comp.reserve(16);  // a pin's component rarely outgrows it
    comp.assign(1, seed);
    const auto absorbed = [&](const geom::Rect& r) {
      return std::find(comp.begin(), comp.end(), r) != comp.end();
    };
    // Bounded flood fill over touching same-net shapes, breadth first: every
    // absorbed rect is expanded in turn, so comp[next..] is the frontier.
    // The bound keeps the incremental check local; standard-cell pins have
    // few rects.
    constexpr std::size_t kMaxComponent = 64;
    for (std::size_t next = 0;
         next < comp.size() && comp.size() < kMaxComponent; ++next) {
      const geom::Rect cur = comp[next];
      queryWithExtra(
          fixed, layer, cur, extra,
          [&](const Shape& s) {
            if (s.net != net || comp.size() >= kMaxComponent) return;
            if (!s.rect.intersects(cur) || absorbed(s.rect)) return;
            comp.push_back(s.rect);
          },
          reach);
    }
    if (reach != nullptr && comp.size() >= kMaxComponent) {
      *reach = geom::Rect(geom::kCoordMin, geom::kCoordMin, geom::kCoordMax,
                          geom::kCoordMax);
    }
  }

  /// Appends the MINSTEP then the EOL violations of one merged `net`
  /// component on `layer` to `out`. Both rules walk the same boundary, so
  /// it is extracted once. EOL sees the shapes on the layer, from `fixed`
  /// and `extra`, that conflict with `net` within maxSpacingHalo of the
  /// component's bounding box, which contains every EOL region.
  template <typename Fixed>
  void checkEdgeRules(const Fixed& fixed, const db::Layer& layer,
                      std::span<const geom::Rect> comp, int net,
                      std::span<const Shape> extra,
                      std::vector<Violation>& out,
                      geom::Rect* reach = nullptr) const {
    if (!layer.minStep && !layer.eol) return;
    util::ArenaScope scratch(util::scratchArena());
    geom::BoundaryRings rings;
    geom::unionBoundary(comp, rings);
    for (const Violation& v : checkMinStep(layer, rings)) out.push_back(v);
    if (!layer.eol) return;

    geom::Rect compBox;
    for (const geom::Rect& r : comp) compBox = compBox.merge(r);
    util::ArenaVector<geom::Rect> obstacles;
    obstacles.reserve(16);
    queryWithExtra(
        fixed, layer.index, compBox.bloat(maxSpacingHalo(layer)), extra,
        [&](const Shape& s) {
          if (s.net != net || s.net == Shape::kObsNet) {
            obstacles.push_back(s.rect);
          }
        },
        reach);
    for (const Violation& v : checkEol(layer, rings, net, obstacles)) {
      out.push_back(v);
    }
  }

  /// Every `fixed` and `extra` shape on `layer` intersecting `box` (closed:
  /// touching counts); merges `box` into `reach` when given.
  template <typename Fixed, typename Fn>
  static void queryWithExtra(const Fixed& fixed, int layer,
                             const geom::Rect& box,
                             std::span<const Shape> extra, Fn&& fn,
                             geom::Rect* reach = nullptr) {
    if (reach != nullptr) *reach = reach->merge(box);
    fixed.query(layer, box, fn);
    for (const Shape& s : extra) {
      if (s.layer == layer && s.rect.intersects(box)) fn(s);
    }
  }

  const db::Tech* tech_;
  RegionQuery region_;
};

// The engine's own region is instantiated once, in engine.cpp.
extern template std::vector<Violation> DrcEngine::checkVia(
    const RegionQuery&, const db::ViaDef&, geom::Point, int,
    std::span<const Shape>, geom::Rect*) const;

}  // namespace pao::drc
