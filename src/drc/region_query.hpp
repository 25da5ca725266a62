// Per-layer spatial store of layout shapes with net/ownership identity, the
// context against which candidate shapes (via enclosures, wire segments) are
// DRC-checked. A context filled once (an instance's or a design's fixed
// shapes, a batch check's layout) takes the bulk constructor; add() is for
// contexts that grow as they are used (the router's routed wiring).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "geom/geom.hpp"
#include "geom/grid_index.hpp"

namespace pao::drc {

enum class ShapeKind : std::uint8_t { kPin, kObstruction, kWire, kVia, kIoPin };

/// A shape in the region query. `net` is a caller-defined identity: shapes
/// with equal non-negative `net` are electrically the same and never conflict
/// with each other; `net == kObsNet` shapes (obstructions) conflict with
/// everything routed.
struct Shape {
  geom::Rect rect;
  int layer = -1;
  int net = -1;
  ShapeKind kind = ShapeKind::kPin;
  bool fixed = true;  ///< library/pin geometry (assumed clean against itself)

  static constexpr int kObsNet = -1;
};

/// True when spacing-style rules apply between the two shapes: different
/// nets, or either side is an obstruction.
inline bool conflicting(const Shape& a, const Shape& b) {
  if (a.net == Shape::kObsNet || b.net == Shape::kObsNet) return true;
  return a.net != b.net;
}

/// Each layer keeps its shapes once, in insertion order, as the items of a
/// geom::GridIndex whose bins hold 32-bit indices into them.
class RegionQuery {
 public:
  explicit RegionQuery(int numLayers);

  /// Bulk fill: `emit(add)` must call `add(shape)` for every shape, and is
  /// run twice with the same result, once to count the shapes per layer and
  /// once to store them, so each layer's storage and bins are sized exactly.
  /// add() filters shapes as the method below does.
  template <typename Emit>
  RegionQuery(int numLayers, Emit&& emit) {
    std::vector<std::size_t> counts(numLayers, 0);
    emit([&](const Shape& s) {
      if (accepts(s, numLayers)) ++counts[s.layer];
    });
    std::vector<std::vector<Shape>> byLayer(numLayers);
    for (int l = 0; l < numLayers; ++l) byLayer[l].reserve(counts[l]);
    emit([&](const Shape& s) {
      if (accepts(s, numLayers)) byLayer[s.layer].push_back(s);
    });
    layers_.reserve(numLayers);
    for (std::vector<Shape>& shapes : byLayer) {
      layers_.emplace_back(std::move(shapes));
    }
  }

  /// Adds one shape; empty shapes and shapes off the layer range are
  /// skipped.
  void add(const Shape& s);
  void clear();

  int numLayers() const { return static_cast<int>(layers_.size()); }

  /// Invokes fn(shape) for every stored shape on `layer` intersecting `box`,
  /// in geom::GridIndex query order.
  template <typename Fn>
  void query(int layer, const geom::Rect& box, Fn&& fn) const {
    if (layer < 0 || layer >= numLayers()) return;
    layers_[layer].query(
        box, [&](const geom::Rect&, const Shape& s) { fn(s); });
  }

  /// query() reporting each shape's index in shapesOnLayer(layer).
  template <typename Fn>
  void queryIndices(int layer, const geom::Rect& box, Fn&& fn) const {
    if (layer < 0 || layer >= numLayers()) return;
    layers_[layer].queryIndices(box, fn);
  }

  /// All shapes on `layer`, in insertion order.
  const std::vector<Shape>& shapesOnLayer(int layer) const {
    return layers_.at(layer).items();
  }

 private:
  static bool accepts(const Shape& s, int numLayers) {
    return s.layer >= 0 && s.layer < numLayers && !s.rect.empty();
  }

  std::vector<geom::GridIndex<Shape, &Shape::rect>> layers_;
};

}  // namespace pao::drc
