#include "viz/svg.hpp"

#include <sstream>

namespace pao::viz {

namespace {

/// Distinct hues per routing layer (cycled), in the familiar
/// metal-colormap tradition: M1 blue, M2 red, M3 green, M4 orange, ...
const char* kLayerColors[] = {"#3b6fd4", "#d43b3b", "#3bb54a", "#e08a2e",
                              "#9b59b6", "#16a2a2", "#c2527e", "#7d8a2e",
                              "#5d6d7e"};

const char* layerColor(const db::Tech& tech, int layerIdx) {
  // Color by routing-layer ordinal so cut layers inherit the bottom metal.
  int ordinal = 0;
  for (int i = 0; i <= layerIdx && i < static_cast<int>(tech.layers().size());
       ++i) {
    if (tech.layers()[i].type == db::LayerType::kRouting && i < layerIdx) {
      ++ordinal;
    }
  }
  return kLayerColors[ordinal % (sizeof(kLayerColors) /
                                 sizeof(kLayerColors[0]))];
}

}  // namespace

std::string renderRegion(const db::Design& design, geom::Rect window,
                         const std::vector<VizShape>& extra,
                         const std::vector<drc::Violation>& violations,
                         const SvgOptions& options) {
  const double s = options.scale;
  const double w = static_cast<double>(window.width()) * s;
  const double h = static_cast<double>(window.height()) * s;

  std::ostringstream os;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w
     << "\" height=\"" << h << "\" viewBox=\"0 0 " << w << " " << h
     << "\">\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"#fafafa\"/>\n";

  // SVG y grows downward; layout y grows upward.
  const auto px = [&](geom::Coord x) {
    return (static_cast<double>(x - window.xlo)) * s;
  };
  const auto py = [&](geom::Coord y) {
    return h - (static_cast<double>(y - window.ylo)) * s;
  };
  const auto emitRect = [&](const geom::Rect& r, const std::string& fill,
                            double opacity, const std::string& stroke = "",
                            bool dashed = false) {
    const geom::Rect c = r.intersect(window);
    if (c.empty()) return;
    os << "<rect x=\"" << px(c.xlo) << "\" y=\"" << py(c.yhi) << "\" width=\""
       << static_cast<double>(c.width()) * s << "\" height=\""
       << static_cast<double>(c.height()) * s << "\" fill=\""
       << (fill.empty() ? "none" : fill) << "\" fill-opacity=\"" << opacity
       << "\"";
    if (!stroke.empty()) {
      os << " stroke=\"" << stroke << "\" stroke-width=\"1\"";
      if (dashed) os << " stroke-dasharray=\"4 2\"";
    }
    os << "/>\n";
  };
  const auto layerOk = [&](int layer) {
    return options.maxLayer < 0 || layer <= options.maxLayer;
  };

  // Instance outlines + fixed geometry.
  for (const db::Instance& inst : design.instances) {
    const geom::Rect bbox = inst.bbox();
    if (!bbox.intersects(window)) continue;
    if (options.drawInstances) {
      emitRect(bbox, "", 0.0, "#999999");
      const geom::Rect c = bbox.intersect(window);
      os << "<text x=\"" << px(c.xlo) + 2 << "\" y=\"" << py(c.ylo) - 2
         << "\" font-size=\"8\" fill=\"#666666\">" << inst.name
         << "</text>\n";
    }
    db::forEachPlacedShape(
        inst, [&](const geom::Rect& r, int layer, int pin) {
          if (!layerOk(layer)) return;
          if (pin < 0) {
            emitRect(r, "#555555", 0.25);
          } else {
            emitRect(r, layerColor(*design.tech, layer),
                     inst.master->pins[pin].isSupply() ? 0.15 : 0.45);
          }
        });
  }

  // Extra (routed) shapes.
  for (const VizShape& shape : extra) {
    if (!layerOk(shape.layer)) continue;
    const char* color = layerColor(*design.tech, shape.layer);
    switch (shape.kind) {
      case VizShape::Kind::kAccessVia:
        emitRect(shape.rect, color, 0.9, "#000000");
        break;
      case VizShape::Kind::kVia:
        emitRect(shape.rect, color, 0.8);
        break;
      case VizShape::Kind::kWire:
        emitRect(shape.rect, color, 0.55);
        break;
      case VizShape::Kind::kPin:
        emitRect(shape.rect, color, 0.45);
        break;
      case VizShape::Kind::kObstruction:
        emitRect(shape.rect, "#555555", 0.25);
        break;
    }
  }

  // Violations: dashed red boxes, Fig. 8 style.
  for (const drc::Violation& v : violations) {
    emitRect(v.bbox.bloat(20), "", 0.0, "#e00000", /*dashed=*/true);
  }

  os << "</svg>\n";
  return os.str();
}

}  // namespace pao::viz
