// Quality evaluators for the paper's two access metrics, independent of the
// generators they judge:
//   - Experiment 1 (Table II): #dirty APs — access points whose primary via
//     placement is NOT DRC-clean against the intra-cell context;
//   - Experiment 2 (Table III): #failed pins — net-attached instance pins
//     left without a DRC-clean access point once every instance has chosen
//     its pattern and neighbors are taken into account.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "db/row_index.hpp"
#include "drc/engine.hpp"
#include "pao/oracle.hpp"
#include "util/small_vec.hpp"

namespace pao::core {

struct DirtyApStats {
  std::size_t totalAps = 0;
  std::size_t dirtyAps = 0;
};

/// Re-validates every generated access point's primary via with the full DRC
/// rule set against its unique instance's intra-cell context. Classes run on
/// result.numThreads workers; the totals do not depend on the thread count.
DirtyApStats countDirtyAps(const db::Design& design,
                           const OracleResult& result);

struct FailedPinDetail {
  int instIdx = -1;
  int sigPinPos = -1;
  /// Empty when the pin simply has no chosen access point.
  std::vector<drc::Violation> violations;
};

struct FailedPinStats {
  std::size_t totalPins = 0;   ///< net-attached instance pins
  std::size_t failedPins = 0;  ///< pins without a DRC-clean access point
  /// Populated when requested (diagnostics); capped by the caller's limit.
  std::vector<FailedPinDetail> details;
};

/// How a pin counts as "having a DRC-clean access point".
enum class FailedPinCriterion {
  /// Strict: the pattern-chosen access via must be clean in the full design
  /// context including every other pin's chosen via (used for PAAF).
  kChosenAp,
  /// Lenient: at least one of the pin's generated access points must have a
  /// clean via against the fixed design context (used for the TrRte
  /// baseline, which has no pattern-choice mechanism to hold it to).
  kAnyAp,
};

/// What the failed-pin evaluation checks pins against, built once per
/// design and AccessView: every net-attached instance pin in evaluation order,
/// every chosen access via, and the fixed design context of
/// DrcEngine::checkVia (every instance's pin shapes and obstructions, and
/// the IO pins). That context is a view, not a copy: query() walks the
/// db::RowIndex to the instances near a box and shifts a per-(master,
/// orient) table of origin-relative shapes to each one's origin; only the
/// IO pins sit in the engine's region. pinView() adds the other chosen vias
/// through the same walk, and a PinWindow answers a whole check from one
/// walk. Read-only once built, except through update().
class FailedPinContext {
 public:
  struct PlacedVia {
    int inst;
    int pinPos;  ///< signal-pin position within the master
    const db::ViaDef* via;
    geom::Point loc;
    int net;
  };
  struct PinRef {
    int inst;
    int pinPos;
    int net;
    int placedIdx;  ///< -1 when the pin has no chosen via access
    bool planar;    ///< chosen access is planar-only (macro pins)
  };

  /// `rows` must index `design` as it is now; both, and the source of
  /// `view`, must outlive the context unchanged (or be followed through
  /// update()).
  FailedPinContext(const db::Design& design, AccessView view,
                   const db::RowIndex& rows);

  const db::Design& design() const { return *design_; }
  /// The analysis the pins are checked under; its numThreads is the
  /// evaluation's worker budget.
  const AccessView& view() const { return view_; }
  const drc::DrcEngine& engine() const { return engine_; }
  const std::vector<PinRef>& pins() const { return pins_; }
  /// In instance order.
  const std::vector<PlacedVia>& placed() const { return placed_; }

  /// Replaces the analysis the pins are read under; call update() for
  /// every instance whose class or chosen pattern it changed.
  void setView(AccessView view) { view_ = view; }
  /// Follows a placement edit of instance `inst`: a new origin, orient,
  /// class or chosen pattern, with the instances, masters and nets as
  /// built and the RowIndex already current. Rewrites the instance's shape
  /// table and its chosen vias in place, so pins() and placed() keep their
  /// order. Returns false when the instance's number of chosen vias
  /// changed; the context is then stale and must be built afresh.
  bool update(int inst);

  /// Calls fn(shape) for every fixed shape on `layer` touching `box`. A pin
  /// shape carries its design net or, unattached, a synthetic id numbered
  /// in (instance, pin) order, then the IO pins; supply pins and
  /// obstructions carry Shape::kObsNet.
  template <typename Fn>
  void query(int layer, const geom::Rect& box, Fn&& fn) const {
    queryFrom(-1, layer, box, fn);
  }

  /// The context chosen via placed()[self] is checked in: for any box,
  /// query()'s fixed shapes, then the shape on the layer of every other
  /// chosen via touching it, instances in row-walk order (rows bottom-up,
  /// each by origin x) and each instance's vias in placed() order.
  struct PinView {
    const FailedPinContext* ctx;
    int self;

    template <typename Fn>
    void query(int layer, const geom::Rect& box, Fn&& fn) const {
      ctx->queryFrom(self, layer, box, fn);
    }
  };
  PinView pinView(int self) const { return {this, self}; }

  /// pinView(self) for one check, gathered by one row walk: the window is
  /// the via's boxes, each bloated by its layer's maxSpacingHalo plus min
  /// step length (the cut by its spacing), stretched over the instance
  /// height plus the halo, where the merged pin bar and its EOL box lie.
  /// For each of the via's three layers the walk lists the fixed shapes and
  /// then the other chosen vias touching the window, in queryFrom's order.
  /// A box inside the window is answered by filtering its layer's list,
  /// which reports what pinView reports in the same order: the row walk
  /// orders instances by (origin y, origin x, index) whatever the box, and
  /// a shape touching a box inside the window touches the window. Any
  /// other box goes to pinView, and so does every query of a via with an
  /// IO pin in its window. The lists keep their buffers across gather()s.
  class PinWindow {
   public:
    explicit PinWindow(const FailedPinContext& ctx);
    /// Gathers the window of chosen via placed()[self].
    void gather(int self);

    template <typename Fn>
    void query(int layer, const geom::Rect& box, Fn&& fn) const {
      for (int k = 0; k < 3 && window_.contains(box); ++k) {
        if (layers_[k] != layer) continue;
        for (const drc::Shape& s : shapes_[k]) {
          if (s.rect.intersects(box)) fn(s);
        }
        return;
      }
      ctx_->queryFrom(self_, layer, box, fn);
    }
    /// Empty when every query goes to pinView.
    const geom::Rect& window() const { return window_; }

   private:
    const FailedPinContext* ctx_;
    int self_ = -1;
    geom::Rect window_;
    std::array<int, 3> layers_{};
    std::array<std::vector<drc::Shape>, 3> shapes_;
    std::vector<int> withVias_;
  };

 private:
  /// query() with `self` < 0; else PinView(*this, self).query(). One row
  /// walk serves both: it lists the instances that have chosen vias, whose
  /// vias are reported after the IO pins.
  template <typename Fn>
  void queryFrom(int self, int layer, const geom::Rect& box, Fn&& fn) const {
    if (layer < 0 || layer >= engine_.region().numLayers()) return;
    util::SmallVec<int, 32> withVias;
    rows_->forEachNear(*design_, box.bloat(overhang_), [&](int i) {
      forEachCellShape(i, layer, box, fn);
      if (self >= 0 && placedBase_[i] != placedBase_[i + 1]) {
        withVias.push_back(i);
      }
    });
    engine_.region().query(layer, box, fn);
    for (const int i : withVias) forEachOtherVia(i, self, layer, box, fn);
  }
  /// fn(shape) for instance i's placed shapes on `layer` touching `box`.
  template <typename Fn>
  void forEachCellShape(int i, int layer, const geom::Rect& box,
                        Fn&& fn) const {
    const geom::Point at = design_->instances[i].origin;
    const geom::Rect local = box.translate(-at.x, -at.y);
    const std::size_t* range = &cellBase_[cellOf_[i] + layer];
    for (std::size_t k = range[0]; k < range[1]; ++k) {
      const CellShape& s = cellShapes_[k];
      if (!s.rect.intersects(local)) continue;
      fn(drc::Shape{s.rect.translate(at.x, at.y), layer,
                    s.pin < 0 ? drc::Shape::kObsNet
                              : netOf_[pinBase_[i] + s.pin],
                    s.kind, true});
    }
  }
  /// fn(shape) for the shape on `layer` of each chosen via of instance i
  /// but placed()[self] touching `box`, in placed() order.
  template <typename Fn>
  void forEachOtherVia(int i, int self, int layer, const geom::Rect& box,
                       Fn&& fn) const {
    for (int u = placedBase_[i]; u < placedBase_[i + 1]; ++u) {
      if (u == self) continue;
      const PlacedVia& pu = placed_[u];
      geom::Rect r;
      if (layer == pu.via->botLayer) {
        r = pu.via->botEncAt(pu.loc);
      } else if (layer == pu.via->cutLayer) {
        r = pu.via->cutAt(pu.loc);
      } else if (layer == pu.via->topLayer) {
        r = pu.via->topEncAt(pu.loc);
      } else {
        continue;
      }
      if (r.intersects(box)) {
        fn(drc::Shape{r, layer, pu.net, drc::ShapeKind::kVia, false});
      }
    }
  }

  /// A master shape at one orient, relative to the instance origin.
  struct CellShape {
    geom::Rect rect;
    int pin;  ///< master pin index; -1 for obstructions and supply pins
    drc::ShapeKind kind;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  /// Per class, its shape table (cellBase_ offset) and the first of its
  /// patterns' slots in chosenOf_, each kNone until an instance uses it.
  struct ClassEntry {
    std::size_t cell = kNone;
    std::size_t patterns = kNone;
  };

  /// The offset in cellBase_ of instance `inst`'s (master, orient) table,
  /// built on first use.
  std::size_t cellFor(int inst);
  /// The chosen access point of instance `inst` by signal-pin position
  /// (null: none), or null when its class has no chosen pattern; built on
  /// first use per (class, pattern). Valid until the next call.
  const AccessPoint* const* chosenFor(int inst);
  /// Sets `ref`'s access from `chosen` (chosenFor of its instance); a
  /// chosen via, which it returns, becomes placed()[slot].
  std::optional<PlacedVia> setAccess(PinRef& ref,
                                     const AccessPoint* const* chosen,
                                     int slot) const;

  const db::Design* design_;
  AccessView view_;
  const db::RowIndex* rows_;
  drc::DrcEngine engine_;
  /// How far any shape or chosen via reaches beyond its instance's bbox.
  /// update() only grows it, which only widens a row walk.
  geom::Coord overhang_ = 0;
  /// The shapes of each (master, orient) in use, layer by layer, each
  /// layer's in forEachPlacedShape order. Instance i's on layer l are
  /// cellShapes_[cellBase_[cellOf_[i] + l] .. cellBase_[cellOf_[i] + l + 1]).
  std::vector<CellShape> cellShapes_;
  std::vector<std::size_t> cellBase_;
  std::vector<std::size_t> cellOf_;
  /// Which table each (master, orient) has, in the order they were built.
  struct CellKey {
    const db::Master* master;
    geom::Orient orient;
    std::size_t cell;
  };
  std::vector<CellKey> cellKeys_;
  std::vector<ClassEntry> byClass_;
  /// Per (class, pattern) slot, the offset of its chosen access points in
  /// chosenAps_ (one per master pin), kNone until used. They point into
  /// the view's class access, whose per-pin lists stay where they are when
  /// a session's class vector grows.
  std::vector<std::size_t> chosenOf_;
  std::vector<const AccessPoint*> chosenAps_;
  /// Pin p of instance i has net id netOf_[pinBase_[i] + p] (query()).
  std::vector<std::size_t> pinBase_;
  std::vector<int> netOf_;
  std::vector<int> placedBase_;  ///< per instance, plus one end entry
  std::vector<PinRef> pins_;
  std::vector<PlacedVia> placed_;
};

/// Evaluates every net-attached instance pin against the fully populated
/// design context (all instances' pins and obstructions, read through a
/// db::RowIndex of the design built for the call) and counts the pins
/// without a DRC-clean access point per the criterion. The pins are checked
/// in fixed-size chunks on result.numThreads workers and merged in pin
/// order, so the stats, details included, do not depend on the thread count.
FailedPinStats countFailedPins(
    const db::Design& design, const OracleResult& result,
    std::size_t maxDetails = 0,
    FailedPinCriterion criterion = FailedPinCriterion::kChosenAp);

/// One pin's strict-criterion verdict and the reach of its check: the bbox
/// of its instance's bbox and of every box the check's DRC queries read.
/// Fixed shapes and neighbour vias enter a check only through those queries,
/// so a change that touches neither the reach nor the pin's own instance
/// cannot change the verdict.
struct PinVerdict {
  geom::Rect reach;
  bool failed = false;
};

/// The incremental form of countFailedPins: checks only pins `which`
/// (indices into ctx.pins()) under the strict criterion, in the same
/// chunked loop on ctx.view().numThreads workers, and stores each one's
/// verdict at verdicts[pin].
void recheckFailedPins(const FailedPinContext& ctx, std::span<const int> which,
                       std::span<PinVerdict> verdicts);

}  // namespace pao::core
