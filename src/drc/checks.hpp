// Individual design-rule checks. Each check is a pure function over shapes
// (plus the layer's rules); the DrcEngine composes them with region queries.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "db/tech.hpp"
#include "drc/region_query.hpp"
#include "drc/violation.hpp"
#include "geom/polygon.hpp"

namespace pao::drc {

/// Metal-to-metal spacing between two conflicting shapes on `layer`.
/// PRL > 0 pairs use the spacing-table requirement against the axis gap;
/// corner-to-corner pairs (PRL <= 0) use Euclidean distance. Overlapping
/// conflicting shapes are shorts.
std::optional<Violation> checkSpacingPair(const db::Layer& layer,
                                          const Shape& a, const Shape& b);

/// MINSTEP over one merged same-net component, given its boundary rings
/// (geom::unionBoundary of the component): flags runs of more than
/// `maxEdges` consecutive edges shorter than `minStepLength` (paper Fig. 3: a
/// via enclosure protruding from a pin shape creates such steps).
std::vector<Violation> checkMinStep(const db::Layer& layer,
                                    const geom::BoundaryRings& rings);

/// End-of-line spacing for one merged same-net component, given its boundary
/// rings: edges shorter than `eolWidth` that are convex at both ends require
/// `space` clearance (extended sideways by `within`) from every rect in
/// `obstacles` — the nearby shapes on `layer` that conflict with `selfNet`.
/// Every clearance region lies within maxSpacingHalo(layer) of the rings.
std::vector<Violation> checkEol(const db::Layer& layer,
                                const geom::BoundaryRings& rings,
                                int selfNet,
                                std::span<const geom::Rect> obstacles);

/// MINAREA over one merged same-net component.
std::optional<Violation> checkMinArea(const db::Layer& layer,
                                      const std::vector<geom::Rect>& component,
                                      int net);

/// Cut-to-cut spacing between two cut shapes of different vias.
std::optional<Violation> checkCutSpacingPair(const db::Layer& cutLayer,
                                             const Shape& a, const Shape& b);

/// Largest spacing any rule on `layer` could require — the query halo.
geom::Coord maxSpacingHalo(const db::Layer& layer);

}  // namespace pao::drc
