// LEF/DEF ingest: the one DEF driver. parseDefStream() tokenizes lazily
// over one immutable view of the input (mmap-backed via FileSource for the
// *File forms), splits the COMPONENTS and NETS sections into entity-aligned
// chunks, and parses the chunks in parallel on a util::JobGraph with
// per-chunk util::Arena scratch. The result never depends on the thread
// count or the chunk size:
//
//   * Chunk boundaries are only ever cut at after-';' entity starts — the
//     positions where a serial section loop begins an iteration — so
//     recovery resyncs can never cross a boundary. A chunk's result is
//     used only up to the first point where it cannot know what the serial
//     parse does: junk after a successful entity (where the serial section
//     loop stops) or a malformed entity that runs into the chunk's end
//     (which the serial parse continues into the next chunk's bytes).
//     There the merge discards every later chunk and the driver runs the
//     serial section loop from that exact byte.
//   * Strict mode: each chunk stops at its first entity error and the
//     in-order merge rethrows the earliest chunk's error (unless an
//     earlier chunk handed over to the serial loop), i.e. the file's first
//     error. On a throw the target design is left untouched.
//   * Recovery mode: chunk diagnostics merge in chunk order (= file
//     order), each after the entities its chunk parsed before it. When the
//     error count reaches ParseOptions::maxErrors the merge appends GEN001
//     and stops, so the design holds exactly what a serial parse had
//     committed when it gave up.
//
// The NETS section resolves component references through a
// util::StringInterner built over the just-merged instances (one hash
// probe per term, no per-lookup std::string), and parsed nets/instances
// commit in chunk order so the result is byte-identical at any thread
// count.
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
  /// Target bytes per chunk; chunks never split an entity. Granularity
  /// affects scheduling only, never results.
  std::size_t chunkBytes = 1 << 20;
};

/// Observability of one ingest run (all fields are outputs).
struct IngestStats {
  std::size_t bytes = 0;       ///< input size
  std::size_t chunks = 0;      ///< parallel section chunks parsed
  std::size_t components = 0;  ///< instances appended
  std::size_t nets = 0;        ///< nets appended
  bool mapped = false;         ///< file came from mmap (vs read fallback)
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
