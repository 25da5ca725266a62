// Technology model: metal/cut layers with design rules, and via definitions.
// This is the LEF-side half of the database. Rules modeled are the ones the
// paper's DRC validation exercises: width-and-PRL spacing tables, min step,
// end-of-line spacing, min area, and cut spacing.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "geom/geom.hpp"

namespace pao::db {

using geom::Coord;
using geom::Rect;

enum class LayerType : std::uint8_t { kRouting, kCut, kMasterslice };
enum class Dir : std::uint8_t { kHorizontal, kVertical };

constexpr Dir orthogonal(Dir d) {
  return d == Dir::kHorizontal ? Dir::kVertical : Dir::kHorizontal;
}

/// One row of a LEF57-style SPACINGTABLE PARALLELRUNLENGTH: shapes wider than
/// `width` with projected run length over `prl` require `spacing`.
struct SpacingTableEntry {
  Coord width = 0;
  Coord prl = 0;
  Coord spacing = 0;
};

/// End-of-line spacing (LEF ENDOFLINE): an edge shorter than `eolWidth`
/// requires `space` clearance within a `within` halo beyond the line end.
struct EolRule {
  Coord space = 0;
  Coord eolWidth = 0;
  Coord within = 0;
};

/// MINSTEP: boundary edges shorter than `minStepLength` are "steps"; more
/// than `maxEdges` consecutive steps is a violation.
struct MinStepRule {
  Coord minStepLength = 0;
  int maxEdges = 1;
};

struct Layer {
  std::string name;
  LayerType type = LayerType::kRouting;
  int index = -1;  ///< position in Tech::layers()

  // Routing-layer attributes.
  Dir dir = Dir::kHorizontal;  ///< preferred routing direction
  Coord width = 0;             ///< default wire width
  Coord pitch = 0;             ///< preferred-direction track pitch
  Coord minArea = 0;
  std::vector<SpacingTableEntry> spacingTable;  ///< sorted by (width, prl)
  std::optional<MinStepRule> minStep;
  std::optional<EolRule> eol;

  // Cut-layer attributes.
  Coord cutSpacing = 0;

  /// Required spacing for a pair of shapes given the wider shape's width and
  /// their projected run length. Falls back to the first table row (the
  /// default min spacing) when the table is empty-width only.
  Coord spacing(Coord width, Coord prl) const;
  /// The default (narrow-wire, any-PRL) min spacing.
  Coord minSpacing() const;
};

/// A via definition: three stacked rects (bottom enclosure, cut, top
/// enclosure) centered on the via origin.
struct ViaDef {
  std::string name;
  int index = -1;     ///< position in Tech::viaDefs() (stable id)
  int botLayer = -1;  ///< routing layer index
  int cutLayer = -1;  ///< cut layer index
  int topLayer = -1;  ///< routing layer index
  Rect botEnc;        ///< relative to via origin
  Rect cut;
  Rect topEnc;
  bool isDefault = false;

  Rect botEncAt(geom::Point p) const { return botEnc.translate(p.x, p.y); }
  Rect cutAt(geom::Point p) const { return cut.translate(p.x, p.y); }
  Rect topEncAt(geom::Point p) const { return topEnc.translate(p.x, p.y); }
  /// The bbox of all three rects of the via placed at `p`.
  Rect boxAt(geom::Point p) const {
    return botEncAt(p).merge(cutAt(p)).merge(topEncAt(p));
  }
};

class Tech {
 public:
  Tech() = default;

  std::string name;
  int dbuPerMicron = 2000;

  /// References returned by addLayer/addViaDef are stable for the lifetime
  /// of the Tech: storage is a std::deque, which never relocates existing
  /// elements on growth. Callers may hold a Layer&/ViaDef& across later
  /// addLayer/addViaDef calls (pao_lint's pointer-stability rule guards the
  /// vector-backed pattern this replaced).
  Layer& addLayer(std::string name, LayerType type);
  ViaDef& addViaDef(std::string name);

  const std::deque<Layer>& layers() const { return layers_; }
  std::deque<Layer>& layers() { return layers_; }
  const Layer& layer(int idx) const { return layers_.at(idx); }
  const Layer* findLayer(std::string_view name) const;

  const std::deque<ViaDef>& viaDefs() const { return viaDefs_; }
  std::deque<ViaDef>& viaDefs() { return viaDefs_; }
  const ViaDef& viaDef(int idx) const { return viaDefs_.at(idx); }
  const ViaDef* findViaDef(std::string_view name) const;
  /// All via defs whose bottom routing layer is `botLayer`, default-first.
  std::vector<const ViaDef*> viaDefsFromLayer(int botLayer) const;

  /// Number of routing layers (layers of type kRouting).
  int numRoutingLayers() const;
  /// Index of the routing layer immediately above `layerIdx`, or -1.
  int routingLayerAbove(int layerIdx) const;

 private:
  // Deques: element references survive emplace_back (unlike std::vector),
  // which is what makes the stability guarantee on add* above hold.
  std::deque<Layer> layers_;
  std::deque<ViaDef> viaDefs_;
  std::unordered_map<std::string, int> layerByName_;
  std::unordered_map<std::string, int> viaByName_;
};

}  // namespace pao::db
