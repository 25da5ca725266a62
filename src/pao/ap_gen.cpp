#include "pao/ap_gen.hpp"

#include <algorithm>
#include <unordered_set>

namespace pao::core {

using db::Dir;
using db::Layer;
using geom::Coord;
using geom::Point;
using geom::Rect;

AccessPointGenerator::AccessPointGenerator(const InstContext& ctx,
                                           ApGenConfig cfg)
    : ctx_(&ctx), cfg_(cfg) {}

namespace {

/// Track coordinates (and derived half-track midpoints) crossing `span`.
std::vector<Coord> trackCoordsIn(const db::Design& design, int layer,
                                 Dir axis, geom::Interval span,
                                 bool halfTrack) {
  std::vector<Coord> out;
  for (const db::TrackPattern* tp : design.tracks(layer, axis)) {
    if (!halfTrack) {
      for (const Coord c : tp->coordsIn(span.lo, span.hi)) out.push_back(c);
    } else {
      // Midpoints between neighboring tracks; widen the scan by one step so
      // midpoints near the span edges are found.
      const std::vector<Coord> cs =
          tp->coordsIn(span.lo - tp->step, span.hi + tp->step);
      for (std::size_t i = 0; i + 1 < cs.size(); ++i) {
        const Coord mid = (cs[i] + cs[i + 1]) / 2;
        if (span.contains(mid)) out.push_back(mid);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Number of track coordinates of `axis` tracks on `layer` inside `span`.
int tracksTouching(const db::Design& design, int layer, Dir axis,
                   geom::Interval span) {
  return static_cast<int>(
      trackCoordsIn(design, layer, axis, span, false).size());
}

}  // namespace

std::vector<Coord> AccessPointGenerator::prefCoords(const Rect& shape,
                                                    const Layer& layer,
                                                    CoordType type) const {
  const db::Design& design = ctx_->design();
  // Horizontal preferred direction => tracks fix y; candidate coord is y.
  const bool horiz = layer.dir == Dir::kHorizontal;
  const geom::Interval span = horiz ? shape.ySpan() : shape.xSpan();
  const Dir axis = horiz ? Dir::kHorizontal : Dir::kVertical;

  switch (type) {
    case CoordType::kOnTrack:
      return trackCoordsIn(design, layer.index, axis, span, false);
    case CoordType::kHalfTrack:
      return trackCoordsIn(design, layer.index, axis, span, true);
    case CoordType::kShapeCenter: {
      // Skip when the span already touches >= 2 tracks, to limit unique
      // off-track coordinates (Sec. II-C).
      if (tracksTouching(design, layer.index, axis, span) >= 2) return {};
      return {(span.lo + span.hi) / 2};
    }
    case CoordType::kEnclosureBoundary: {
      // Align the primary via's bottom enclosure with the pin shape boundary
      // (via-in-pin). One candidate per boundary side per via def.
      std::vector<Coord> out;
      for (const db::ViaDef* via :
           design.tech->viaDefsFromLayer(layer.index)) {
        const Rect enc = via->botEnc;
        const Coord cLo = horiz ? span.lo - enc.ylo : span.lo - enc.xlo;
        const Coord cHi = horiz ? span.hi - enc.yhi : span.hi - enc.xhi;
        for (const Coord c : {cLo, cHi}) {
          if (span.contains(c)) out.push_back(c);
        }
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    }
  }
  return {};
}

std::vector<Coord> AccessPointGenerator::nonPrefCoords(const Rect& shape,
                                                       const Layer& layer,
                                                       CoordType type) const {
  const db::Design& design = ctx_->design();
  const bool horiz = layer.dir == Dir::kHorizontal;
  // Non-preferred axis: x for a horizontal layer. On-track coordinates come
  // from the upper layer's preferred-direction tracks so that up-via access
  // aligns with both layers (Sec. II-C).
  const geom::Interval span = horiz ? shape.xSpan() : shape.ySpan();
  const Dir axis = horiz ? Dir::kVertical : Dir::kHorizontal;
  const int upper = design.tech->routingLayerAbove(layer.index);
  const int trackLayer = upper >= 0 ? upper : layer.index;

  switch (type) {
    case CoordType::kOnTrack:
      return trackCoordsIn(design, trackLayer, axis, span, false);
    case CoordType::kHalfTrack:
      return trackCoordsIn(design, trackLayer, axis, span, true);
    case CoordType::kShapeCenter: {
      if (tracksTouching(design, trackLayer, axis, span) >= 2) return {};
      return {(span.lo + span.hi) / 2};
    }
    case CoordType::kEnclosureBoundary:
      return {};  // enclosure-boundary applies to the preferred axis only
  }
  return {};
}

bool AccessPointGenerator::validate(AccessPoint& ap, int pinIdx) const {
  const drc::DrcEngine& engine = ctx_->engine();
  const db::Design& design = ctx_->design();
  const int net = ctx_->pinNet(pinIdx);
  const Layer& layer = design.tech->layer(ap.layer);

  // Up-via access: probe every via def rooted on this layer, default first.
  for (const db::ViaDef* via : design.tech->viaDefsFromLayer(ap.layer)) {
    if (engine.isViaClean(*via, ap.loc, net)) ap.viaIdx.push_back(via->index);
  }
  if (!ap.viaIdx.empty()) ap.dirs |= kUp;

  // Planar access: probe an escape stub of the default wire width leaving the
  // point in each direction.
  const Coord half = layer.width / 2;
  const Coord stub = layer.pitch > 0
                         ? layer.pitch * cfg_.planarStubPitches
                         : layer.width * 4;
  const struct {
    AccessDir dir;
    Rect r;
  } probes[] = {
      {kEast, Rect(ap.loc.x, ap.loc.y - half, ap.loc.x + stub, ap.loc.y + half)},
      {kWest, Rect(ap.loc.x - stub, ap.loc.y - half, ap.loc.x, ap.loc.y + half)},
      {kNorth, Rect(ap.loc.x - half, ap.loc.y, ap.loc.x + half, ap.loc.y + stub)},
      {kSouth, Rect(ap.loc.x - half, ap.loc.y - stub, ap.loc.x + half, ap.loc.y)},
  };
  for (const auto& probe : probes) {
    if (engine.checkWire(probe.r, ap.layer, net).empty()) {
      ap.dirs |= probe.dir;
    }
  }

  if (cfg_.requireVia) return ap.hasUp();
  return ap.dirs != 0;
}

std::vector<AccessPoint> AccessPointGenerator::generate(int pinIdx) const {
  std::vector<AccessPoint> aps;
  std::unordered_set<Point> seen;

  // Candidate shapes: maximal rectangles per layer carrying the pin.
  struct LayerShapes {
    const Layer* layer;
    std::vector<Rect> rects;
  };
  std::vector<LayerShapes> layerShapes;
  for (const int li : ctx_->pinLayers(pinIdx)) {
    const Layer& layer = ctx_->design().tech->layer(li);
    if (layer.type != db::LayerType::kRouting) continue;
    layerShapes.push_back({&layer, ctx_->pinMaxRects(pinIdx, li)});
  }

  // Algorithm 1: non-preferred type outer {0,1,2}, preferred type inner
  // {0,1,2,3}; all candidates of the current combination are validated and
  // added before the early-termination test.
  for (int t1 = 0; t1 <= 2; ++t1) {
    for (int t0 = 0; t0 <= 3; ++t0) {
      for (const LayerShapes& ls : layerShapes) {
        const bool horiz = ls.layer->dir == Dir::kHorizontal;
        for (const Rect& shape : ls.rects) {
          const std::vector<Coord> prefs =
              prefCoords(shape, *ls.layer, static_cast<CoordType>(t0));
          const std::vector<Coord> nonPrefs =
              nonPrefCoords(shape, *ls.layer, static_cast<CoordType>(t1));
          for (const Coord pc : prefs) {
            for (const Coord npc : nonPrefs) {
              AccessPoint ap;
              ap.loc = horiz ? Point{npc, pc} : Point{pc, npc};
              ap.layer = ls.layer->index;
              ap.prefType = static_cast<CoordType>(t0);
              ap.nonPrefType = static_cast<CoordType>(t1);
              if (!seen.insert(ap.loc).second) continue;
              if (validate(ap, pinIdx)) aps.push_back(std::move(ap));
            }
          }
        }
      }
      if (static_cast<int>(aps.size()) >= cfg_.k) return aps;
    }
  }
  return aps;
}

std::vector<std::vector<AccessPoint>> AccessPointGenerator::generateAll()
    const {
  std::vector<std::vector<AccessPoint>> out;
  out.reserve(ctx_->signalPins().size());
  for (const int pinIdx : ctx_->signalPins()) out.push_back(generate(pinIdx));
  return out;
}

}  // namespace pao::core
