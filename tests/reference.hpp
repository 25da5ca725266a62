// Test-only reference implementations: earlier versions of hot kernels,
// kept as they were before a rewrite for speed. Differential tests hold
// each rewrite to its reference's output exactly, order included.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "drc/engine.hpp"
#include "pao/evaluate.hpp"

namespace pao::reference {

/// DrcEngine::checkVia with a boundary extraction per rule (min step and EOL
/// each run geom::unionBoundary on the merged component) and the EOL context
/// collected into a RegionQuery built on every call.
std::vector<drc::Violation> checkVia(const drc::DrcEngine& engine,
                                     const db::ViaDef& via, geom::Point p,
                                     int net,
                                     std::span<const drc::Shape> extra = {});

/// DrcEngine::checkAll run serially, with the same rect-list min-step and
/// EOL checks (EOL querying the whole region per edge).
std::vector<drc::Violation> checkAll(const drc::DrcEngine& engine);

/// countFailedPins with a std::map net lookup, per-instance
/// signalPinIndices() and per-pin shape vectors, checking vias with
/// reference::checkVia.
core::FailedPinStats countFailedPins(const db::Design& design,
                                     const core::OracleResult& result,
                                     std::size_t maxDetails,
                                     core::FailedPinCriterion criterion);

}  // namespace pao::reference
