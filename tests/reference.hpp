// Test-only reference implementations: earlier versions of hot kernels, of
// the Step-3 cluster selection, of the DEF parser and of unique-instance
// extraction, kept as they were before a rewrite. Differential tests hold
// each rewrite to its reference's output exactly, order included. The
// hash-bin grid index is a header of its own (reference_grid_index.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "db/design.hpp"
#include "db/unique_inst.hpp"
#include "drc/engine.hpp"
#include "geom/polygon.hpp"
#include "lefdef/lexer.hpp"
#include "pao/cluster_select.hpp"
#include "pao/evaluate.hpp"
#include "util/diag.hpp"

namespace pao::reference {

/// One boundary ring as its own vector, as geom::unionBoundary returned
/// rings before it wrote them flat into arena storage.
using BoundaryRing = std::vector<geom::BoundaryEdge>;

/// geom::unionBoundary with a std::map of intervals per band and per
/// scanline and an unordered_map of outgoing edges per point for the ring
/// stitching, and a vector per ring.
std::vector<BoundaryRing> unionBoundary(std::span<const geom::Rect> rects);
/// geom::unionSlabs with a std::map of the previous band's open slabs.
std::vector<geom::Rect> unionSlabs(std::vector<geom::Rect> rects);

/// DrcEngine::checkVia with a boundary extraction per rule (min step and EOL
/// each run reference::unionBoundary on the merged component) and the EOL context
/// collected into a RegionQuery built on every call.
std::vector<drc::Violation> checkVia(const drc::DrcEngine& engine,
                                     const db::ViaDef& via, geom::Point p,
                                     int net,
                                     std::span<const drc::Shape> extra = {});

/// DrcEngine::checkAll run serially, with the same rect-list min-step and
/// EOL checks (EOL querying the whole region per edge).
std::vector<drc::Violation> checkAll(const drc::DrcEngine& engine);

/// The fixed design context of the failed-pin evaluation as a copy: every
/// instance's pin shapes and obstructions and the IO pins, with the net ids
/// FailedPinContext::query() reports, bulk-filled into a RegionQuery.
drc::RegionQuery fixedContext(const db::Design& design);

/// The neighbour context the failed-pin evaluation gave chosen via
/// ctx.placed()[v] before it read the other vias through a per-pin view: the
/// shapes (bottom enclosure, cut, top enclosure) of every other chosen via
/// whose bbox lies within a radius of its bbox, in placed() order. The
/// radius is the tech's widest spacing halo plus min-step length, and never
/// less than 2048 dbu.
std::vector<drc::Shape> neighbourShapes(const core::FailedPinContext& ctx,
                                        int v);

/// countFailedPins with a std::map net lookup, per-instance
/// signalPinIndices() and per-pin shape vectors, checking vias with
/// reference::checkVia.
core::FailedPinStats countFailedPins(const db::Design& design,
                                     const core::OracleResult& result,
                                     std::size_t maxDetails,
                                     core::FailedPinCriterion criterion);

/// The clusters Step 3 runs over, as the session's initial build makes
/// them: core::splitRow of every row of a fresh db::RowIndex of `design`,
/// bottom-up. A multi-height instance joins the cluster of every row its
/// bbox covers.
std::vector<std::vector<int>> buildClusters(const db::Design& design);

/// Step 3 as it was before the pair-verdict table: ClusterSelector's
/// std::map memo of (class, pattern, class, pattern, offset) verdicts,
/// filled only for the pattern pairs the DP asks for, and the cluster DP run
/// serially over buildClusters(design) in order. cfg.budgetSeconds is
/// ignored (unlimited). `pairChecks` counts the via-clean probes behind the
/// memoized verdicts.
struct ClusterSelection {
  std::vector<int> chosenPattern;
  std::size_t pairChecks = 0;
};
ClusterSelection selectClusters(const db::Design& design,
                                const db::UniqueInstances& unique,
                                const std::vector<core::ClassAccess>& classes,
                                const core::ClusterSelectConfig& cfg = {});

/// The single-pass DEF parser over the eager tokenizer, which built a
/// std::string per token before parsing. Strict form: throws ParseError at
/// the first error and leaves whatever it had parsed in `design`.
void parseDef(std::string_view text, db::Design& design);
/// Recovery-aware form; with opts.recover it never throws and stops with
/// GEN001 once opts.maxErrors diagnostics have been recorded.
lefdef::ParseResult parseDef(std::string_view text, db::Design& design,
                             const lefdef::ParseOptions& opts);

struct Token {
  std::string text;
  std::size_t line = 0;
  std::size_t col = 0;
};

/// Every token of `text` as the eager tokenizer saw it, plus the LEX001
/// diagnostic it raised on a read past the last token.
struct TokenStream {
  std::vector<Token> tokens;
  util::Diag endOfInput;
};
TokenStream tokenize(std::string_view text,
                     std::string_view file = "<input>");

/// Unique-instance classes by one serial pass in instance order: a class is
/// created at its signature's first appearance, members ascend.
db::UniqueInstances extractUniqueInstances(const db::Design& design);

}  // namespace pao::reference
