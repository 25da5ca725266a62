// Placement legality checks: instances on the site grid, inside the die,
// non-overlapping. Useful both to validate parsed designs before analysis
// and as the guard a placement loop runs next to the pin access advisor.
#pragma once

#include <string>
#include <vector>

#include "db/design.hpp"

namespace pao::db {

struct PlacementViolation {
  enum class Kind {
    kOffDie,      ///< instance bbox leaves the die area
    kOffSite,     ///< origin not aligned to the row/site grid
    kOverlap,     ///< two instances overlap
    kNoRow,       ///< instance origin y matches no row
  } kind;
  int instA = -1;
  int instB = -1;  ///< second instance for overlaps, else -1

  std::string describe(const Design& design) const;
};

/// Checks every instance. Row/site checks are skipped when the design has
/// no rows (e.g. hand-built unit-test designs). Violations come per instance
/// in index order: off-die, then no-row or off-site, then an overlap with
/// each earlier instance, ascending.
std::vector<PlacementViolation> checkPlacement(const Design& design);

}  // namespace pao::db
