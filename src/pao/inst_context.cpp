#include "pao/inst_context.hpp"

#include <algorithm>

namespace pao::core {

InstContext::InstContext(const db::Design& design, const db::UniqueInstance& ui)
    : design_(&design), ui_(&ui), engine_(*design.tech) {
  const db::Master& master = *ui.master;
  signalPins_ = master.signalPinIndices();
  placedPins_.resize(master.pins.size());
  const db::Instance& rep = design.instances.at(ui.representative);
  engine_.region() = drc::RegionQuery(
      engine_.region().numLayers(), [&](const auto& add) {
        db::forEachPlacedShape(
            rep, [&](const geom::Rect& r, int layer, int pin) {
              if (pin < 0) {
                add({r, layer, drc::Shape::kObsNet,
                     drc::ShapeKind::kObstruction, /*fixed=*/true});
                return;
              }
              // Supply rails behave like foreign metal for every signal pin.
              const int net = master.pins[pin].isSupply() ? drc::Shape::kObsNet
                                                          : pinNet(pin);
              add({r, layer, net, drc::ShapeKind::kPin, /*fixed=*/true});
            });
      });
  db::forEachPlacedShape(rep, [&](const geom::Rect& r, int layer, int pin) {
    if (pin >= 0) placedPins_[pin].push_back({layer, r});
  });
}

std::vector<geom::Rect> InstContext::pinShapes(int pinIdx, int layer) const {
  std::vector<geom::Rect> out;
  for (const db::PinShape& s : placedPins_.at(pinIdx)) {
    if (s.layer == layer) out.push_back(s.rect);
  }
  return out;
}

std::vector<geom::Rect> InstContext::pinMaxRects(int pinIdx, int layer) const {
  return geom::maxRects(pinShapes(pinIdx, layer));
}

std::vector<int> InstContext::pinLayers(int pinIdx) const {
  std::vector<int> out;
  for (const db::PinShape& s : ui_->master->pins.at(pinIdx).shapes) {
    if (std::find(out.begin(), out.end(), s.layer) == out.end()) {
      out.push_back(s.layer);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace pao::core
