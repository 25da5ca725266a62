#include "pao/evaluate.hpp"

#include <algorithm>
#include <span>
#include <type_traits>
#include <utility>

#include "obs/trace.hpp"
#include "pao/inst_context.hpp"
#include "util/jobs.hpp"

namespace pao::core {

namespace {

/// Pins per failed-pin evaluation job. Fixed, so the chunking (and with it
/// every chunk's detail list) is the same at any thread count.
constexpr std::size_t kPinsPerChunk = 64;

/// How far `r` reaches beyond `box` on any side; 0 when it lies inside.
geom::Coord beyond(const geom::Rect& r, const geom::Rect& box) {
  return std::max({geom::Coord{0}, box.xlo - r.xlo, box.ylo - r.ylo,
                   r.xhi - box.xhi, r.yhi - box.yhi});
}

/// The dirty-AP tally of unique class `c`.
DirtyApStats classDirtyAps(const db::Design& design, const OracleResult& result,
                           std::size_t c) {
  DirtyApStats stats;
  const ClassAccess& ca = result.classes[c];
  if (ca.pinAps.empty()) return stats;
  const db::UniqueInstance& ui = result.unique.classes[c];
  const InstContext ctx(design, ui);
  // Class access is origin-relative; the context sits at the representative.
  const geom::Point repOrigin = design.instances[ui.representative].origin;
  const std::vector<int>& sig = ctx.signalPins();
  for (std::size_t p = 0; p < ca.pinAps.size(); ++p) {
    for (const AccessPoint& ap : ca.pinAps[p]) {
      ++stats.totalAps;
      const int net = ctx.pinNet(sig[p]);
      const geom::Point loc = ap.loc + repOrigin;
      const db::ViaDef* via = ap.primaryVia(*design.tech);
      bool clean;
      if (via != nullptr) {
        clean = ctx.engine().isViaClean(*via, loc, net);
      } else {
        // Planar-only access (macro pins): re-validate the escape stubs of
        // every claimed direction.
        clean = ap.dirs != 0;
        const db::Layer& layer = design.tech->layer(ap.layer);
        const geom::Coord half = layer.width / 2;
        const geom::Coord stub =
            layer.pitch > 0 ? layer.pitch * 2 : layer.width * 4;
        const struct {
          std::uint8_t dir;
          geom::Rect r;
        } probes[] = {
            {kEast,
             geom::Rect(loc.x, loc.y - half, loc.x + stub, loc.y + half)},
            {kWest,
             geom::Rect(loc.x - stub, loc.y - half, loc.x, loc.y + half)},
            {kNorth,
             geom::Rect(loc.x - half, loc.y, loc.x + half, loc.y + stub)},
            {kSouth,
             geom::Rect(loc.x - half, loc.y - stub, loc.x + half, loc.y)},
        };
        for (const auto& probe : probes) {
          if ((ap.dirs & probe.dir) != 0 &&
              !ctx.engine().checkWire(probe.r, ap.layer, net).empty()) {
            clean = false;
          }
        }
      }
      if (!clean) ++stats.dirtyAps;
    }
  }
  return stats;
}

}  // namespace

DirtyApStats countDirtyAps(const db::Design& design,
                           const OracleResult& result) {
  PAO_TRACE_SCOPE("eval.dirty_aps");
  // One slot per class, summed in class order.
  std::vector<DirtyApStats> perClass(result.unique.classes.size());
  util::parallelFor(
      perClass.size(),
      [&](std::size_t c) { perClass[c] = classDirtyAps(design, result, c); },
      result.numThreads);
  DirtyApStats stats;
  for (const DirtyApStats& s : perClass) {
    stats.totalAps += s.totalAps;
    stats.dirtyAps += s.dirtyAps;
  }
  return stats;
}

FailedPinContext::FailedPinContext(const db::Design& design, AccessView view,
                                   const db::RowIndex& rows)
    : design_(&design), view_(view), rows_(&rows), engine_(*design.tech) {
  PAO_TRACE_SCOPE("eval.failed_pins.context");
  const int numInsts = static_cast<int>(design.instances.size());
  const int numNets = static_cast<int>(design.nets.size());
  const int numLayers = engine_.region().numLayers();

  // Global electrical identity per (instance, master-pin), flat by
  // instance: pin p of instance i sits at netOf_[pinBase_[i] + p]. It holds
  // the design net index when attached, a unique synthetic id otherwise,
  // and kNoNet for supply pins (never looked up) and malformed terms.
  constexpr int kNoNet = -2;
  pinBase_.assign(design.instances.size() + 1, 0);
  for (int i = 0; i < numInsts; ++i) {
    pinBase_[i + 1] = pinBase_[i] + design.instances[i].master->pins.size();
  }
  netOf_.assign(pinBase_.back(), kNoNet);
  std::size_t attached = 0;  // bounds the pins and vias listed below
  for (int n = 0; n < numNets; ++n) {
    for (const db::NetTerm& t : design.nets[n].terms) {
      if (t.isIo() || t.instIdx >= numInsts || t.pinIdx < 0) continue;
      const std::size_t slot = pinBase_[t.instIdx] + t.pinIdx;
      if (slot >= pinBase_[t.instIdx + 1]) continue;
      attached += std::exchange(netOf_[slot], n) == kNoNet ? 1 : 0;
    }
  }

  // One pass in (instance, pin) order: the instance's shape table, then per
  // pin a synthetic id if it has no design net, and for a net-attached
  // signal pin its evaluation entry and chosen via. Chosen vias are kept by
  // instance, so each pin can be checked against every *other* pin's via
  // without seeing its own.
  byClass_.resize(view.unique->classes.size());
  cellOf_.resize(design.instances.size());
  placedBase_.resize(design.instances.size() + 1);
  pins_.reserve(attached);
  placed_.reserve(attached);
  int synthetic = numNets;
  for (int i = 0; i < numInsts; ++i) {
    const db::Master& master = *design.instances[i].master;
    cellOf_[i] = cellFor(i);
    placedBase_[i] = static_cast<int>(placed_.size());
    const AccessPoint* const* chosen = chosenFor(i);
    int pos = -1;  // signal-pin position within the master
    for (int p = 0; p < static_cast<int>(master.pins.size()); ++p) {
      if (master.pins[p].isSupply()) continue;
      int& net = netOf_[pinBase_[i] + p];
      if (net == kNoNet) net = synthetic++;
      ++pos;
      // Only count pins attached to real design nets.
      if (net >= numNets) continue;
      PinRef& ref = pins_.emplace_back(PinRef{i, pos, net, -1, false});
      const int slot = static_cast<int>(placed_.size());
      if (const auto pv = setAccess(ref, chosen, slot)) placed_.push_back(*pv);
    }
  }
  placedBase_[numInsts] = static_cast<int>(placed_.size());

  // The IO pins are numbered after the synthetic ids.
  engine_.region() = drc::RegionQuery(numLayers, [&](const auto& add) {
    for (std::size_t k = 0; k < design.ioPins.size(); ++k) {
      const db::IoPin& p = design.ioPins[k];
      add({p.rect, p.layer, synthetic + static_cast<int>(k),
           drc::ShapeKind::kIoPin, true});
    }
  });
}

std::size_t FailedPinContext::cellFor(int inst) {
  const db::Instance& instance = design_->instances[inst];
  // A class's members share master and orient, so the class caches it.
  const auto cls = static_cast<std::size_t>(view_.classOf(inst));
  if (cls < byClass_.size() && byClass_[cls].cell != kNone) {
    return byClass_[cls].cell;
  }
  std::size_t cell = kNone;
  for (const CellKey& key : cellKeys_) {
    if (key.master == instance.master && key.orient == instance.orient) {
      cell = key.cell;
      break;
    }
  }
  if (cell == kNone) {
    // The master's shapes at this orient, placed at the origin, one layer
    // after another. Supply pins are foreign metal; shapes a RegionQuery
    // would skip are skipped.
    cell = cellBase_.size();
    cellKeys_.push_back({instance.master, instance.orient, cell});
    const db::Master& master = *instance.master;
    const db::Instance atOrigin{"", &master, {0, 0}, instance.orient};
    for (int l = 0; l <= engine_.region().numLayers(); ++l) {
      cellBase_.push_back(cellShapes_.size());
      db::forEachPlacedShape(atOrigin, [&](const geom::Rect& r, int layer,
                                           int p) {
        if (layer != l || r.empty()) return;
        const bool foreign = p < 0 || master.pins[p].isSupply();
        cellShapes_.push_back(
            {r, foreign ? -1 : p,
             p < 0 ? drc::ShapeKind::kObstruction : drc::ShapeKind::kPin});
        overhang_ = std::max(overhang_, beyond(r, atOrigin.bbox()));
      });
    }
  }
  if (view_.classOf(inst) >= 0) {
    if (cls >= byClass_.size()) byClass_.resize(cls + 1);
    byClass_[cls].cell = cell;
  }
  return cell;
}

// A growing class vector moves each ClassAccess, which leaves its per-pin
// access point lists, and the chosenAps_ pointers into them, in place.
static_assert(std::is_nothrow_move_constructible_v<ClassAccess>);

const AccessPoint* const* FailedPinContext::chosenFor(int inst) {
  const int cls = view_.classOf(inst);
  if (cls < 0) return nullptr;
  const ClassAccess& ca = view_.access(cls);
  const int pattern = view_.pattern(inst);
  if (pattern < 0 || pattern >= static_cast<int>(ca.patterns.size())) {
    return nullptr;
  }
  if (static_cast<std::size_t>(cls) >= byClass_.size()) {
    byClass_.resize(cls + 1);
  }
  ClassEntry& entry = byClass_[cls];
  if (entry.patterns == kNone) {
    entry.patterns = chosenOf_.size();
    chosenOf_.resize(chosenOf_.size() + ca.patterns.size(), kNone);
  }
  std::size_t& at = chosenOf_[entry.patterns + pattern];
  if (at == kNone) {
    // Each signal pin's chosen access point under the pattern. A class's
    // members share master and orient, so how far their vias reach beyond
    // the instance bbox is worked out here, once per pair in use.
    at = chosenAps_.size();
    const db::Instance& instance = design_->instances[inst];
    const db::Instance atOrigin{"", instance.master, {0, 0}, instance.orient};
    for (int pos = 0; pos < static_cast<int>(instance.master->pins.size());
         ++pos) {
      const auto ap = placeChosenAp(ca, pattern, pos, {0, 0});
      chosenAps_.push_back(ap ? ap->ap : nullptr);
      const db::ViaDef* via =
          ap ? ap->ap->primaryVia(*design_->tech) : nullptr;
      if (via != nullptr) {
        overhang_ = std::max(overhang_,
                             beyond(via->boxAt(ap->loc), atOrigin.bbox()));
      }
    }
  }
  return &chosenAps_[at];
}

std::optional<FailedPinContext::PlacedVia> FailedPinContext::setAccess(
    PinRef& ref, const AccessPoint* const* chosen, int slot) const {
  const AccessPoint* ap = chosen != nullptr ? chosen[ref.pinPos] : nullptr;
  const db::ViaDef* via = ap ? ap->primaryVia(*design_->tech) : nullptr;
  ref.placedIdx = via != nullptr ? slot : -1;
  // Planar-only access (macro pins) counts as accessible; the stub legality
  // was validated at generation and re-checked by countDirtyAps.
  ref.planar = ap != nullptr && via == nullptr && ap->dirs != 0;
  if (via == nullptr) return std::nullopt;
  return PlacedVia{ref.inst, ref.pinPos, via,
                   ap->loc + design_->instances[ref.inst].origin, ref.net};
}

bool FailedPinContext::update(int inst) {
  cellOf_[inst] = cellFor(inst);
  const AccessPoint* const* chosen = chosenFor(inst);
  const auto refs = std::ranges::equal_range(pins_, inst, {}, &PinRef::inst);
  int vias = 0;
  for (const PinRef& ref : refs) {
    const AccessPoint* ap = chosen != nullptr ? chosen[ref.pinPos] : nullptr;
    vias += ap != nullptr && ap->primaryVia(*design_->tech) != nullptr;
  }
  if (vias != placedBase_[inst + 1] - placedBase_[inst]) return false;
  int slot = placedBase_[inst];
  for (PinRef& ref : refs) {
    if (const auto pv = setAccess(ref, chosen, slot)) placed_[slot++] = *pv;
  }
  return true;
}

FailedPinContext::PinWindow::PinWindow(const FailedPinContext& ctx)
    : ctx_(&ctx) {
  // Room for a typical window, so a chunk of checks rarely regrows them.
  for (std::vector<drc::Shape>& list : shapes_) list.reserve(32);
  withVias_.reserve(16);
}

void FailedPinContext::PinWindow::gather(int self) {
  const FailedPinContext& ctx = *ctx_;
  const PlacedVia& pv = ctx.placed_[self];
  const db::ViaDef& via = *pv.via;
  const db::Tech& tech = *ctx.design_->tech;
  self_ = self;
  layers_ = {via.botLayer, via.cutLayer, via.topLayer};
  geom::Coord halo = 0;
  const auto metal = [&](const geom::Rect& enc, int layer) {
    const db::Layer& l = tech.layer(layer);
    const geom::Coord h = drc::maxSpacingHalo(l);
    halo = std::max(halo, h);
    return enc.bloat(h + (l.minStep ? l.minStep->minStepLength : 0));
  };
  geom::Rect window =
      metal(via.botEncAt(pv.loc), via.botLayer)
          .merge(metal(via.topEncAt(pv.loc), via.topLayer))
          .merge(via.cutAt(pv.loc).bloat(tech.layer(via.cutLayer).cutSpacing));
  const geom::Rect cell = ctx.design_->instances[pv.inst].bbox();
  window = window.merge(
      geom::Rect(window.xlo, cell.ylo - halo, window.xhi, cell.yhi + halo));

  for (std::vector<drc::Shape>& list : shapes_) list.clear();
  window_ = geom::Rect();
  bool io = false;
  for (const int layer : layers_) {
    ctx.engine_.region().query(layer, window,
                               [&](const drc::Shape&) { io = true; });
  }
  if (io) return;
  window_ = window;

  withVias_.clear();
  ctx.rows_->forEachNear(*ctx.design_, window.bloat(ctx.overhang_),
                         [&](int i) {
                           for (int k = 0; k < 3; ++k) {
                             ctx.forEachCellShape(
                                 i, layers_[k], window,
                                 [&](const drc::Shape& s) {
                                   shapes_[k].push_back(s);
                                 });
                           }
                           if (ctx.placedBase_[i] != ctx.placedBase_[i + 1]) {
                             withVias_.push_back(i);
                           }
                         });
  for (const int i : withVias_) {
    for (int k = 0; k < 3; ++k) {
      ctx.forEachOtherVia(i, self, layers_[k], window,
                          [&](const drc::Shape& s) {
                            shapes_[k].push_back(s);
                          });
    }
  }
}

namespace {

/// The failed-pin loop of the batch and the incremental evaluation: checks
/// pins pinAt(0), ..., pinAt(count - 1) (indices into ctx.pins()) in
/// fixed-size chunks on ctx.view().numThreads workers. Each chunk keeps its own
/// count and its first maxDetails details, merged in chunk order, which
/// reproduces the serial stats exactly. With `verdicts`, also stores each
/// checked pin's verdict and reach at verdicts[pin].
template <typename PinAt>
FailedPinStats checkPins(const FailedPinContext& ctx, std::size_t count,
                         PinAt pinAt, std::size_t maxDetails,
                         FailedPinCriterion criterion,
                         std::span<PinVerdict> verdicts) {
  const db::Design& design = ctx.design();
  const AccessView& view = ctx.view();
  const drc::DrcEngine& engine = ctx.engine();
  const std::vector<FailedPinContext::PinRef>& pins = ctx.pins();

  // Lenient criterion: a pin passes when ANY of its generated access points
  // drops a clean via against the fixed context.
  const auto anyApClean = [&](const FailedPinContext::PinRef& ref) {
    const int cls = view.classOf(ref.inst);
    if (cls < 0 || view.access(cls).pinAps.empty()) return false;
    const geom::Point origin = design.instances[ref.inst].origin;
    for (const AccessPoint& ap : view.access(cls).pinAps[ref.pinPos]) {
      const db::ViaDef* via = ap.primaryVia(*design.tech);
      if (via != nullptr &&
          engine.checkVia(ctx, *via, ap.loc + origin, ref.net).empty()) {
        return true;
      }
    }
    return false;
  };

  struct Chunk {
    std::size_t failed = 0;
    std::vector<FailedPinDetail> details;
  };
  std::vector<Chunk> chunks((count + kPinsPerChunk - 1) / kPinsPerChunk);
  util::parallelFor(
      chunks.size(),
      [&](std::size_t c) {
        Chunk& out = chunks[c];
        FailedPinContext::PinWindow window(ctx);
        const std::size_t end = std::min(count, (c + 1) * kPinsPerChunk);
        for (std::size_t k = c * kPinsPerChunk; k < end; ++k) {
          const std::size_t i = pinAt(k);
          const FailedPinContext::PinRef& ref = pins[i];
          // The verdict also reads the pin's own instance: its placement,
          // class and chosen pattern.
          geom::Rect reach;
          geom::Rect* reachOut = nullptr;
          if (!verdicts.empty()) {
            reach = design.instances[ref.inst].bbox();
            reachOut = &reach;
          }
          std::vector<drc::Violation> violations;
          bool failed = false;
          if (criterion == FailedPinCriterion::kAnyAp) {
            failed = !anyApClean(ref);
          } else if (ref.placedIdx < 0) {
            failed = !ref.planar;
          } else {
            const FailedPinContext::PlacedVia& pv =
                ctx.placed()[ref.placedIdx];
            // Context: the fixed design and all other pins' chosen vias.
            window.gather(ref.placedIdx);
            violations = engine.checkVia(window, *pv.via, pv.loc, pv.net, {},
                                         reachOut);
            failed = !violations.empty();
          }
          if (!verdicts.empty()) verdicts[i] = {reach, failed};
          if (!failed) continue;
          ++out.failed;
          if (out.details.size() < maxDetails) {
            out.details.push_back(
                {ref.inst, ref.pinPos, std::move(violations)});
          }
        }
      },
      view.numThreads);

  FailedPinStats stats;
  for (Chunk& chunk : chunks) {
    stats.failedPins += chunk.failed;
    for (FailedPinDetail& d : chunk.details) {
      if (stats.details.size() == maxDetails) break;
      stats.details.push_back(std::move(d));
    }
  }
  return stats;
}

}  // namespace

FailedPinStats countFailedPins(const db::Design& design,
                               const OracleResult& result,
                               std::size_t maxDetails,
                               FailedPinCriterion criterion) {
  PAO_TRACE_SCOPE("eval.failed_pins");
  // Declared inside the span, so their teardown is attributed to it too.
  const db::RowIndex rows(design);
  const FailedPinContext ctx(design, result.view(), rows);
  FailedPinStats stats = checkPins(
      ctx, ctx.pins().size(), [](std::size_t k) { return k; }, maxDetails,
      criterion, {});
  stats.totalPins = ctx.pins().size();
  return stats;
}

void recheckFailedPins(const FailedPinContext& ctx, std::span<const int> which,
                       std::span<PinVerdict> verdicts) {
  checkPins(
      ctx, which.size(),
      [which](std::size_t k) { return static_cast<std::size_t>(which[k]); },
      0, FailedPinCriterion::kChosenAp, verdicts);
}

}  // namespace pao::core
