// Reference failed-pin evaluation (see reference.hpp): countFailedPins as
// it was, with its via checks routed through reference::checkVia and the
// via-shape copy adapted to DrcEngine::viaShapes returning an array; its via
// index is the frozen hash-bin GridIndex (reference_grid_index.hpp). Also
// the fixed design context as a copy of every placed shape in a
// RegionQuery, as FailedPinContext built it before it read the design in
// place, and the radius gather of neighbour vias it used before its
// per-pin view.
#include <algorithm>
#include <map>

#include "reference_grid_index.hpp"
#include "reference.hpp"

namespace pao::reference {

drc::RegionQuery fixedContext(const db::Design& design) {
  const int numInsts = static_cast<int>(design.instances.size());
  const int numNets = static_cast<int>(design.nets.size());

  // Global electrical identity per (instance, master-pin), flat by
  // instance: pin p of instance i sits at netOf[pinBase[i] + p]. It holds
  // the design net index when attached, a unique synthetic id otherwise,
  // and kNoNet for supply pins (never looked up) and malformed terms.
  constexpr int kNoNet = -2;
  std::vector<std::size_t> pinBase(design.instances.size() + 1, 0);
  for (int i = 0; i < numInsts; ++i) {
    pinBase[i + 1] = pinBase[i] + design.instances[i].master->pins.size();
  }
  std::vector<int> netOf(pinBase.back(), kNoNet);
  for (int n = 0; n < numNets; ++n) {
    for (const db::NetTerm& t : design.nets[n].terms) {
      if (t.isIo() || t.instIdx >= numInsts || t.pinIdx < 0) continue;
      const std::size_t slot = pinBase[t.instIdx] + t.pinIdx;
      if (slot < pinBase[t.instIdx + 1]) netOf[slot] = n;
    }
  }
  // A signal pin without a design net gets a synthetic id, numbered in
  // (instance, pin) order; the IO pins are numbered after them.
  int synthetic = numNets;
  for (int i = 0; i < numInsts; ++i) {
    const db::Master& master = *design.instances[i].master;
    for (std::size_t p = 0; p < master.pins.size(); ++p) {
      if (!master.pins[p].isSupply() && netOf[pinBase[i] + p] == kNoNet) {
        netOf[pinBase[i] + p] = synthetic++;
      }
    }
  }
  const int ioBase = synthetic;

  // Every instance's pin shapes and obstructions, and the IO pins, straight
  // into the region's exact-size bulk fill. Supply pins are foreign metal.
  return drc::RegionQuery(
      static_cast<int>(design.tech->layers().size()), [&](const auto& add) {
        for (int i = 0; i < numInsts; ++i) {
          const db::Master& master = *design.instances[i].master;
          const std::size_t base = pinBase[i];
          db::forEachPlacedShape(
              design.instances[i], [&](const geom::Rect& r, int layer, int p) {
                if (p < 0) {
                  add({r, layer, drc::Shape::kObsNet,
                       drc::ShapeKind::kObstruction, true});
                  return;
                }
                const int net = master.pins[p].isSupply() ? drc::Shape::kObsNet
                                                          : netOf[base + p];
                add({r, layer, net, drc::ShapeKind::kPin, true});
              });
        }
        for (std::size_t k = 0; k < design.ioPins.size(); ++k) {
          const db::IoPin& p = design.ioPins[k];
          add({p.rect, p.layer, ioBase + static_cast<int>(k),
               drc::ShapeKind::kIoPin, true});
        }
      });
}

std::vector<drc::Shape> neighbourShapes(const core::FailedPinContext& ctx,
                                        int v) {
  const drc::DrcEngine& engine = ctx.engine();
  geom::Coord radius = 2048;
  for (const db::Layer& l : engine.tech().layers()) {
    const geom::Coord step = l.minStep ? l.minStep->minStepLength : 0;
    radius = std::max(radius, drc::maxSpacingHalo(l) + step);
  }
  const auto boxOf = [&](int u) {
    const core::FailedPinContext::PlacedVia& pv = ctx.placed()[u];
    return pv.via->botEncAt(pv.loc)
        .merge(pv.via->cutAt(pv.loc))
        .merge(pv.via->topEncAt(pv.loc));
  };
  const geom::Rect query = boxOf(v).bloat(radius);
  std::vector<drc::Shape> extra;
  for (int u = 0; u < static_cast<int>(ctx.placed().size()); ++u) {
    if (u == v || !boxOf(u).intersects(query)) continue;
    const core::FailedPinContext::PlacedVia& pu = ctx.placed()[u];
    const auto shapes = engine.viaShapes(*pu.via, pu.loc, pu.net);
    extra.insert(extra.end(), shapes.begin(), shapes.end());
  }
  return extra;
}

core::FailedPinStats countFailedPins(const db::Design& design,
                                     const core::OracleResult& result,
                                     std::size_t maxDetails,
                                     core::FailedPinCriterion criterion) {
  using namespace core;
  FailedPinStats stats;

  // Global electrical identity per (instance, master-pin): the design net
  // index when attached, or a unique synthetic id otherwise.
  std::map<std::pair<int, int>, int> netOf;
  for (int n = 0; n < static_cast<int>(design.nets.size()); ++n) {
    for (const db::NetTerm& t : design.nets[n].terms) {
      if (!t.isIo()) netOf[{t.instIdx, t.pinIdx}] = n;
    }
  }
  int synthetic = static_cast<int>(design.nets.size());

  // Fixed design context: every instance's pin shapes and obstructions.
  drc::DrcEngine engine(*design.tech);
  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const db::Instance& inst = design.instances[i];
    const geom::Transform xf = inst.transform();
    const db::Master& master = *inst.master;
    for (int p = 0; p < static_cast<int>(master.pins.size()); ++p) {
      const db::Pin& pin = master.pins[p];
      const bool isSupply =
          pin.use == db::PinUse::kPower || pin.use == db::PinUse::kGround;
      int net;
      if (isSupply) {
        net = drc::Shape::kObsNet;
      } else if (const auto it = netOf.find({i, p}); it != netOf.end()) {
        net = it->second;
      } else {
        net = synthetic++;
        netOf[{i, p}] = net;
      }
      for (const db::PinShape& s : pin.shapes) {
        engine.region().add({xf.apply(s.rect), s.layer, net,
                             drc::ShapeKind::kPin, true});
      }
    }
    for (const db::Obstruction& o : master.obstructions) {
      engine.region().add({xf.apply(o.rect), o.layer, drc::Shape::kObsNet,
                           drc::ShapeKind::kObstruction, true});
    }
  }
  for (const db::IoPin& p : design.ioPins) {
    engine.region().add({p.rect, p.layer, synthetic++,
                         drc::ShapeKind::kIoPin, true});
  }

  // Chosen vias of every net-attached pin, in a side index so each pin can
  // be checked against every *other* pin's via without seeing its own.
  struct PlacedVia {
    int inst;
    int pinPos;  ///< signal-pin position within the master
    const db::ViaDef* via;
    geom::Point loc;
    int net;
  };
  std::vector<PlacedVia> placed;
  struct PinRef {
    int inst;
    int pinPos;
    int net;
    int placedIdx;  ///< -1 when the pin has no chosen via access
    bool planar;    ///< chosen access is planar-only (macro pins)
  };
  std::vector<PinRef> pins;

  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const db::Master& master = *design.instances[i].master;
    const std::vector<int> sig = master.signalPinIndices();
    for (int pos = 0; pos < static_cast<int>(sig.size()); ++pos) {
      const auto netIt = netOf.find({i, sig[pos]});
      if (netIt == netOf.end()) continue;  // pin not attached to any net
      // Only count pins attached to real design nets.
      if (netIt->second >= static_cast<int>(design.nets.size())) continue;
      PinRef ref{i, pos, netIt->second, -1, false};
      const auto chosen = result.chosenAp(design, i, pos);
      if (chosen && chosen->ap->primaryVia(*design.tech) != nullptr) {
        ref.placedIdx = static_cast<int>(placed.size());
        placed.push_back(
            {i, pos, chosen->ap->primaryVia(*design.tech), chosen->loc, netIt->second});
      } else if (chosen && chosen->ap->dirs != 0) {
        // Planar-only access (macro pins): counts as accessible; the stub
        // legality was validated at generation and re-checked by
        // countDirtyAps.
        ref.planar = true;
      }
      pins.push_back(ref);
    }
  }

  GridIndex<int> viaIndex;
  std::vector<std::vector<drc::Shape>> viaShapes(placed.size());
  for (int v = 0; v < static_cast<int>(placed.size()); ++v) {
    const PlacedVia& pv = placed[v];
    const auto shapes = engine.viaShapes(*pv.via, pv.loc, pv.net);
    viaShapes[v].assign(shapes.begin(), shapes.end());
    geom::Rect bbox;
    for (const drc::Shape& s : viaShapes[v]) bbox = bbox.merge(s.rect);
    viaIndex.insert(bbox, v);
  }

  stats.totalPins = pins.size();

  if (criterion == FailedPinCriterion::kAnyAp) {
    // Lenient criterion: a pin passes when ANY of its generated access
    // points drops a clean via against the fixed context.
    for (const PinRef& ref : pins) {
      const int cls = result.unique.classOf[ref.inst];
      bool anyClean = false;
      if (cls >= 0 && !result.classes[cls].pinAps.empty()) {
        const geom::Point delta = design.instances[ref.inst].origin;
        for (const AccessPoint& ap :
             result.classes[cls].pinAps[ref.pinPos]) {
          if (ap.primaryVia(*design.tech) == nullptr) continue;
          if (checkVia(engine, *ap.primaryVia(*design.tech), ap.loc + delta,
                       ref.net)
                  .empty()) {
            anyClean = true;
            break;
          }
        }
      }
      if (!anyClean) {
        ++stats.failedPins;
        if (stats.details.size() < maxDetails) {
          stats.details.push_back({ref.inst, ref.pinPos, {}});
        }
      }
    }
    return stats;
  }

  for (const PinRef& ref : pins) {
    if (ref.placedIdx < 0) {
      if (!ref.planar) {
        ++stats.failedPins;
        if (stats.details.size() < maxDetails) {
          stats.details.push_back({ref.inst, ref.pinPos, {}});
        }
      }
      continue;
    }
    const PlacedVia& pv = placed[ref.placedIdx];
    // Context: all other pins' chosen vias near this one.
    std::vector<drc::Shape> extra;
    geom::Rect query;
    for (const drc::Shape& s : viaShapes[ref.placedIdx]) {
      query = query.merge(s.rect);
    }
    viaIndex.query(query.bloat(2048), [&](const geom::Rect&, int v) {
      if (v == ref.placedIdx) return;
      // Same-net vias (multi-pin nets) are not conflicts; include them
      // anyway — checkVia treats same-net context as merge candidates.
      for (const drc::Shape& s : viaShapes[v]) extra.push_back(s);
    });
    const std::vector<drc::Violation> violations =
        checkVia(engine, *pv.via, pv.loc, pv.net, extra);
    if (!violations.empty()) {
      ++stats.failedPins;
      if (stats.details.size() < maxDetails) {
        stats.details.push_back({ref.inst, ref.pinPos, violations});
      }
    }
  }
  return stats;
}

}  // namespace pao::reference
