// Content fingerprint of a Design: a 64-bit FNV-1a hash over everything
// the DEF round-trip preserves (name, die area, rows, tracks, instances,
// IO pins, nets — masters by name). Two designs with equal fingerprints
// are byte-identical under writeDef. The scale-equivalence tests use this
// to compare streamed vs reference parses of multi-hundred-MB inputs
// without materializing both DEF strings.
#pragma once

#include <cstdint>

#include "db/design.hpp"

namespace pao::db {

std::uint64_t designFingerprint(const Design& design);

}  // namespace pao::db
