// Intra-cell DRC context for one unique instance: all pin shapes (each pin
// its own electrical identity) and obstructions, transformed into the design
// coordinates of the representative placement. Steps 1 and 2 check candidate
// vias against exactly this context — inter-cell effects are deferred to
// Step 3 (paper Sec. III).
#pragma once

#include <vector>

#include "db/design.hpp"
#include "db/unique_inst.hpp"
#include "drc/engine.hpp"
#include "geom/polygon.hpp"

namespace pao::core {

class InstContext {
 public:
  InstContext(const db::Design& design, const db::UniqueInstance& ui);

  const db::UniqueInstance& uniqueInst() const { return *ui_; }
  const db::Design& design() const { return *design_; }
  const drc::DrcEngine& engine() const { return engine_; }

  /// Signal/clock pin indices into the master's pin list, in master order.
  const std::vector<int>& signalPins() const { return signalPins_; }

  /// Net id used in the DRC context for the master pin `pinIdx`.
  int pinNet(int pinIdx) const { return pinIdx; }

  /// Transformed shapes of master pin `pinIdx` on `layer`.
  std::vector<geom::Rect> pinShapes(int pinIdx, int layer) const;
  /// Maximal rectangles of the pin's merged shapes on `layer` (the rects
  /// shape-center coordinates are defined on, Sec. II-C).
  std::vector<geom::Rect> pinMaxRects(int pinIdx, int layer) const;
  /// Routing layers on which pin `pinIdx` has shapes.
  std::vector<int> pinLayers(int pinIdx) const;

 private:
  const db::Design* design_;
  const db::UniqueInstance* ui_;
  drc::DrcEngine engine_;
  std::vector<int> signalPins_;
  /// Pin shapes placed at the representative, per master pin.
  std::vector<std::vector<db::PinShape>> placedPins_;
};

}  // namespace pao::core
