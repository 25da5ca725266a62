// LEF/DEF ingest: the one DEF driver. parseDefStream() tokenizes lazily
// over one immutable view of the input (mmap-backed via FileSource for the
// *File forms), cuts the COMPONENTS and NETS sections into chunks with a
// byte search, never tokenizing their entities itself, and parses the
// chunks in parallel on a util::JobGraph with per-chunk util::Arena
// scratch. The result never depends on the thread count or the chunk size
// (DESIGN.md "Streaming ingest & scale"):
//
//   * A cut is a ';' followed by whitespace and a '-' token. It holds only
//     if the chunk before it ends on that ';' (the ';' was not in a
//     comment or a string); otherwise the serial section loop takes over
//     at that chunk's last entity. Likewise at junk after an entity, at an
//     entity running into its chunk's end, and at the section's END (the
//     last chunk's lexer runs to the end of the text). The merge discards
//     every chunk after a take-over.
//   * Strict mode: the in-order merge rethrows the earliest chunk's first
//     error, i.e. the file's first error; the target design is untouched.
//   * Recovery mode: chunk diagnostics merge in file order, each after the
//     entities parsed before it, so a maxErrors bail-out (GEN001) leaves
//     exactly what a serial parse had committed.
//
// The design keeps the one instance-name index, built right after the
// COMPONENTS merge; NETS resolves component names through it and IO pin
// names through a first-match index over the pins parsed before NETS.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "db/design.hpp"
#include "db/lib.hpp"
#include "db/tech.hpp"
#include "lefdef/lexer.hpp"

namespace pao::lefdef {

struct StreamOptions {
  ParseOptions parse;
  /// Worker count for the chunk jobs (util::resolveThreads semantics:
  /// 0 = hardware concurrency). Results are byte-identical at any value.
  int numThreads = 0;
  /// Target bytes per chunk; a chunk ends at the last cut within it (an
  /// entity boundary on well-formed input). Granularity affects
  /// scheduling only, never results.
  std::size_t chunkBytes = 1 << 20;
};

/// Observability of one ingest run (all fields are outputs).
struct IngestStats {
  std::size_t bytes = 0;       ///< input size
  std::size_t chunks = 0;      ///< parallel section chunks parsed
  std::size_t components = 0;  ///< instances appended
  std::size_t nets = 0;        ///< nets appended
  bool mapped = false;         ///< file came from mmap (vs read fallback)
  /// Bytes of COMPONENTS/NETS entities the serial section loop parsed
  /// after the chunks handed over: 0 on well-formed input. Not reported.
  std::size_t serialBytes = 0;
  /// Recovery hit ParseOptions::maxErrors and gave up with GEN001. The
  /// name is kept because pao-report/2 `ingest` readers key on it.
  bool legacyFallback = false;
  double parseSeconds = 0;     ///< wall seconds (file forms only)
};

/// Parses DEF text into `design` (design.tech and design.lib must already
/// point at the technology and library the DEF references). With
/// opts.parse.recover a bad component/pin/net is dropped and reported
/// while the rest of its section still parses (the call never throws);
/// without it the first error throws ParseError carrying the same Diag and
/// `design` is left untouched.
ParseResult parseDefStream(std::string_view text, db::Design& design,
                           const StreamOptions& opts,
                           IngestStats* stats = nullptr);

/// parseDefStream on one thread: the in-memory form for callers that do
/// not ask for a parallel ingest. Throws ParseError on malformed input or
/// unknown master/pin references.
void parseDef(std::string_view text, db::Design& design);
ParseResult parseDef(std::string_view text, db::Design& design,
                     const ParseOptions& opts);

/// Opens `path` via FileSource (mmap with read() fallback) and runs
/// parseDefStream. Injects the "def.io" fault point before opening, so the
/// CLI fault contract carries over from the slurp path.
ParseResult parseDefFile(const std::string& path, db::Design& design,
                         const StreamOptions& opts,
                         IngestStats* stats = nullptr);

/// LEF ingest over a FileSource view ("lef.io" fault point). LEF files are
/// library-sized, not design-sized, so the parse itself is the serial
/// parseLef — the win here is mmap + zero-copy, not chunking.
ParseResult parseLefFile(const std::string& path, db::Tech& tech,
                         db::Library& lib, const ParseOptions& opts,
                         IngestStats* stats = nullptr);

}  // namespace pao::lefdef
