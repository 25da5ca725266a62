#include "pao/evaluate.hpp"

#include <algorithm>
#include <map>
#include <span>
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
  std::map<std::pair<const db::Master*, geom::Orient>, std::size_t> cells;
  // Each signal pin's chosen access point under one (class, pattern), and
  // how far its via reaches beyond the instance bbox (-1: no via). A
  // class's members share master and orient, so this is worked out once
  // per pair in use.
  struct ChosenVia {
    const AccessPoint* ap;
    geom::Coord overhang;
  };
  std::vector<ChosenVia> chosenVias;
  std::map<std::pair<int, int>, std::size_t> chosenOf;
  cellOf_.resize(design.instances.size());
  placedBase_.resize(design.instances.size() + 1);
  pins_.reserve(attached);
  placed_.reserve(attached);
  int synthetic = numNets;
  for (int i = 0; i < numInsts; ++i) {
    const db::Instance& inst = design.instances[i];
    const db::Master& master = *inst.master;
    const auto [cell, fresh] =
        cells.try_emplace({inst.master, inst.orient}, cellBase_.size());
    if (fresh) {
      // The master's shapes at this orient, placed at the origin, one layer
      // after another. Supply pins are foreign metal; shapes a RegionQuery
      // would skip are skipped.
      const db::Instance atOrigin{"", inst.master, {0, 0}, inst.orient};
      for (int l = 0; l <= numLayers; ++l) {
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
    cellOf_[i] = cell->second;
    placedBase_[i] = static_cast<int>(placed_.size());
    const ChosenVia* chosen = nullptr;  // by signal-pin position
    if (const int cls = view.classOf(i); cls >= 0) {
      const int pattern = view.pattern(i);
      const auto [at, isNew] =
          chosenOf.try_emplace({cls, pattern}, chosenVias.size());
      for (int pos = 0; isNew && pos < static_cast<int>(master.pins.size());
           ++pos) {
        const auto ap =
            placeChosenAp(view.access(cls), pattern, pos, inst.origin);
        const db::ViaDef* via = ap ? ap->ap->primaryVia(*design.tech) : nullptr;
        chosenVias.push_back(
            {ap ? ap->ap : nullptr,
             via ? beyond(via->boxAt(ap->loc), inst.bbox()) : -1});
      }
      chosen = chosenVias.data() + at->second;
    }
    int pos = -1;  // signal-pin position within the master
    for (int p = 0; p < static_cast<int>(master.pins.size()); ++p) {
      if (master.pins[p].isSupply()) continue;
      int& net = netOf_[pinBase_[i] + p];
      if (net == kNoNet) net = synthetic++;
      ++pos;
      // Only count pins attached to real design nets.
      if (net >= numNets) continue;
      PinRef ref{i, pos, net, -1, false};
      const ChosenVia* cv = chosen != nullptr ? &chosen[pos] : nullptr;
      if (cv != nullptr && cv->overhang >= 0) {
        ref.placedIdx = static_cast<int>(placed_.size());
        placed_.push_back({i, pos, cv->ap->primaryVia(*design.tech),
                           cv->ap->loc + inst.origin, net});
        overhang_ = std::max(overhang_, cv->overhang);
      } else if (cv != nullptr && cv->ap != nullptr && cv->ap->dirs != 0) {
        // Planar-only access (macro pins): counts as accessible; the stub
        // legality was validated at generation and re-checked by
        // countDirtyAps.
        ref.planar = true;
      }
      pins_.push_back(ref);
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
            violations = engine.checkVia(ctx.pinView(ref.placedIdx), *pv.via,
                                         pv.loc, pv.net, {}, reachOut);
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
