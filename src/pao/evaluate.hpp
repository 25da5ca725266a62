// Quality evaluators for the paper's two access metrics, independent of the
// generators they judge:
//   - Experiment 1 (Table II): #dirty APs — access points whose primary via
//     placement is NOT DRC-clean against the intra-cell context;
//   - Experiment 2 (Table III): #failed pins — net-attached instance pins
//     left without a DRC-clean access point once every instance has chosen
//     its pattern and neighbors are taken into account.
#pragma once

#include <span>
#include <vector>

#include "drc/engine.hpp"
#include "geom/grid_index.hpp"
#include "pao/oracle.hpp"

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
/// design and result: the fixed design context (every instance's pin shapes
/// and obstructions, and the IO pins) in a DRC engine, every net-attached
/// instance pin in evaluation order, and every chosen access via.
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

  FailedPinContext(const db::Design& design, const OracleResult& result);

  const drc::DrcEngine& engine() const { return engine_; }
  const std::vector<PinRef>& pins() const { return pins_; }
  const std::vector<PlacedVia>& placed() const { return placed_; }

  /// Appends to `extra` the shapes of every other chosen via near
  /// placed()[v]: the context placed()[v] is checked in beside the fixed
  /// design.
  void neighbourShapes(int v, std::vector<drc::Shape>& extra) const;

 private:
  drc::DrcEngine engine_;
  /// How far from a via's bounding box neighbourShapes() gathers vias: the
  /// widest spacing halo plus min-step length of any layer in the tech, and
  /// never less than 2048 dbu.
  geom::Coord neighbourRadius_ = 0;
  std::vector<PinRef> pins_;
  std::vector<PlacedVia> placed_;
  std::vector<drc::Shape> viaShapes_;  ///< three per placed via
  geom::GridIndex<int> viaIndex_;
};

/// Evaluates every net-attached instance pin against the fully populated
/// design context (all instances' pins and obstructions) and counts the pins
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
/// (indices into ctx.pins(), which `result` and `design` built) under the
/// strict criterion, in the same chunked loop on result.numThreads
/// workers, and stores each one's verdict at verdicts[pin].
void recheckFailedPins(const FailedPinContext& ctx, const db::Design& design,
                       const OracleResult& result, std::span<const int> which,
                       std::span<PinVerdict> verdicts);

}  // namespace pao::core
