#include "pao/evaluate.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "drc/checks.hpp"
#include "obs/trace.hpp"
#include "pao/inst_context.hpp"
#include "util/jobs.hpp"

namespace pao::core {

namespace {

/// Pins per failed-pin evaluation job. Fixed, so the chunking (and with it
/// every chunk's detail list) is the same at any thread count.
constexpr std::size_t kPinsPerChunk = 64;

/// Floor of the neighbour-via radius of FailedPinContext.
constexpr geom::Coord kMinNeighbourRadius = 2048;

/// The three shapes of placed via `v` in FailedPinContext::viaShapes_.
std::span<const drc::Shape> shapesOf(const std::vector<drc::Shape>& all,
                                     int v) {
  return std::span<const drc::Shape>(all).subspan(
      static_cast<std::size_t>(v) * 3, 3);
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

FailedPinContext::FailedPinContext(const db::Design& design,
                                   const OracleResult& result)
    : engine_(*design.tech), neighbourRadius_(kMinNeighbourRadius) {
  PAO_TRACE_SCOPE("eval.failed_pins.context");
  for (const db::Layer& l : design.tech->layers()) {
    const geom::Coord step = l.minStep ? l.minStep->minStepLength : 0;
    neighbourRadius_ =
        std::max(neighbourRadius_, drc::maxSpacingHalo(l) + step);
  }

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

  // Fixed design context: every instance's pin shapes and obstructions, and
  // the IO pins, straight into the region's exact-size bulk fill. Supply
  // pins are foreign metal.
  engine_.region() = drc::RegionQuery(
      engine_.region().numLayers(), [&](const auto& add) {
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

  // Chosen vias of every net-attached pin, in a side index so each pin can
  // be checked against every *other* pin's via without seeing its own.
  for (int i = 0; i < numInsts; ++i) {
    const db::Master& master = *design.instances[i].master;
    int pos = -1;  // signal-pin position within the master
    for (int p = 0; p < static_cast<int>(master.pins.size()); ++p) {
      if (!master.pins[p].isSignal()) continue;
      ++pos;
      const int net = netOf[pinBase[i] + p];
      // Only count pins attached to real design nets.
      if (net < 0 || net >= numNets) continue;
      PinRef ref{i, pos, net, -1, false};
      const auto chosen = result.chosenAp(design, i, pos);
      const db::ViaDef* via =
          chosen ? chosen->ap->primaryVia(*design.tech) : nullptr;
      if (via != nullptr) {
        ref.placedIdx = static_cast<int>(placed_.size());
        placed_.push_back({i, pos, via, chosen->loc, net});
      } else if (chosen && chosen->ap->dirs != 0) {
        // Planar-only access (macro pins): counts as accessible; the stub
        // legality was validated at generation and re-checked by
        // countDirtyAps.
        ref.planar = true;
      }
      pins_.push_back(ref);
    }
  }

  viaShapes_.reserve(placed_.size() * 3);
  std::vector<geom::GridIndex<int>::Entry> vias;
  vias.reserve(placed_.size());
  for (int v = 0; v < static_cast<int>(placed_.size()); ++v) {
    const PlacedVia& pv = placed_[v];
    geom::Rect bbox;
    for (const drc::Shape& s : engine_.viaShapes(*pv.via, pv.loc, pv.net)) {
      viaShapes_.push_back(s);
      bbox = bbox.merge(s.rect);
    }
    vias.push_back({bbox, v});
  }
  viaIndex_ = geom::GridIndex<int>(std::move(vias));
}

void FailedPinContext::neighbourShapes(int v,
                                       std::vector<drc::Shape>& extra) const {
  geom::Rect query;
  for (const drc::Shape& s : shapesOf(viaShapes_, v)) {
    query = query.merge(s.rect);
  }
  query = query.bloat(neighbourRadius_);
  viaIndex_.query(query, [&](const geom::Rect&, int other) {
    if (other == v) return;
    // Same-net vias (multi-pin nets) are not conflicts; include them
    // anyway — checkVia treats same-net context as merge candidates.
    const std::span<const drc::Shape> shapes = shapesOf(viaShapes_, other);
    extra.insert(extra.end(), shapes.begin(), shapes.end());
  });
}

namespace {

/// The failed-pin loop of the batch and the incremental evaluation: checks
/// pins pinAt(0), ..., pinAt(count - 1) (indices into ctx.pins()) in
/// fixed-size chunks on result.numThreads workers. Each chunk keeps its own
/// count and its first maxDetails details, merged in chunk order, which
/// reproduces the serial stats exactly. With `verdicts`, also stores each
/// checked pin's verdict and reach at verdicts[pin].
template <typename PinAt>
FailedPinStats checkPins(const FailedPinContext& ctx, const db::Design& design,
                         const OracleResult& result, std::size_t count,
                         PinAt pinAt, std::size_t maxDetails,
                         FailedPinCriterion criterion,
                         std::span<PinVerdict> verdicts) {
  const drc::DrcEngine& engine = ctx.engine();
  const std::vector<FailedPinContext::PinRef>& pins = ctx.pins();

  // Lenient criterion: a pin passes when ANY of its generated access points
  // drops a clean via against the fixed context.
  const auto anyApClean = [&](const FailedPinContext::PinRef& ref) {
    const int cls = result.unique.classOf[ref.inst];
    if (cls < 0 || result.classes[cls].pinAps.empty()) return false;
    const geom::Point origin = design.instances[ref.inst].origin;
    for (const AccessPoint& ap : result.classes[cls].pinAps[ref.pinPos]) {
      const db::ViaDef* via = ap.primaryVia(*design.tech);
      if (via != nullptr && engine.isViaClean(*via, ap.loc + origin, ref.net)) {
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
        std::vector<drc::Shape> extra;
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
            // Context: all other pins' chosen vias near this one.
            extra.clear();
            ctx.neighbourShapes(ref.placedIdx, extra);
            violations = engine.checkVia(*pv.via, pv.loc, pv.net, extra,
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
      result.numThreads);

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
  // Declared inside the span, so its teardown is attributed to it too.
  const FailedPinContext ctx(design, result);
  FailedPinStats stats = checkPins(
      ctx, design, result, ctx.pins().size(), [](std::size_t k) { return k; },
      maxDetails, criterion, {});
  stats.totalPins = ctx.pins().size();
  return stats;
}

void recheckFailedPins(const FailedPinContext& ctx, const db::Design& design,
                       const OracleResult& result, std::span<const int> which,
                       std::span<PinVerdict> verdicts) {
  checkPins(
      ctx, design, result, which.size(),
      [which](std::size_t k) { return static_cast<std::size_t>(which[k]); },
      0, FailedPinCriterion::kChosenAp, verdicts);
}

}  // namespace pao::core
