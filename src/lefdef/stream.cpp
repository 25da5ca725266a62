#include "lefdef/stream.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "lefdef/lef_parser.hpp"
#include "lefdef/source.hpp"
#include "obs/metrics.hpp"
#include "util/arena.hpp"
#include "util/fault.hpp"
#include "util/jobs.hpp"
#include "util/name_index.hpp"

namespace pao::lefdef {

namespace {

using db::Design;

// ------------------------------------------------------------- the grammar
// Entity parsers are called with the leading '-' already consumed. A
// well-formed entity ends at its ';'; a malformed one can read on past it
// (a ';' taken as a name or keyword), which the chunked driver detects and
// hands to the serial loop (see ChunkOut::resumeAt).

void parseRow(Lexer& lex, Design& design) {
  lex.expect("ROW");
  db::Row row;
  row.name = std::string(lex.next());
  row.site = std::string(lex.next());
  row.origin.x = lex.nextInt();
  row.origin.y = lex.nextInt();
  row.orient = geom::orientFromString(lex.next());
  if (lex.accept("DO")) {
    row.numSites = static_cast<int>(lex.nextInt());
    lex.expect("BY");
    lex.nextInt();  // rows in y (always 1 for std rows)
    lex.expect("STEP");
    row.siteWidth = lex.nextInt();
    lex.nextInt();  // y step
  }
  lex.expect(";");
  design.rows.push_back(std::move(row));
}

void parseTracks(Lexer& lex, Design& design) {
  lex.expect("TRACKS");
  db::TrackPattern tp;
  const std::string_view axis = lex.next();
  // DEF TRACKS X: vertical tracks (fixed x); TRACKS Y: horizontal tracks.
  tp.axis = axis == "X" ? db::Dir::kVertical : db::Dir::kHorizontal;
  tp.start = lex.nextInt();
  lex.expect("DO");
  tp.count = static_cast<int>(lex.nextInt());
  lex.expect("STEP");
  tp.step = lex.nextInt();
  lex.expect("LAYER");
  const std::string layerName(lex.next());
  const db::Layer* layer = design.tech->findLayer(layerName);
  if (layer == nullptr) {
    throw ParseError(lex.diagPrev(
        "DEF001", "TRACKS references unknown layer '" + layerName + "'"));
  }
  tp.layer = layer->index;
  lex.expect(";");
  design.trackPatterns.push_back(tp);
}

/// Master lookup for one COMPONENTS chunk: a linear probe over the names
/// the chunk has already seen, in front of Library::findMaster. Libraries
/// hold tens of masters while chunks hold thousands of components, so the
/// probe beats a map lookup per component. Construct it on the worker
/// inside the chunk's ArenaScope: key bytes and the entry vector live on
/// that arena and are reclaimed wholesale by the scope's rewind.
class MasterCache {
 public:
  explicit MasterCache(const db::Library& lib) : lib_(&lib) {}

  const db::Master* find(const std::string& name) {
    for (const Entry& e : seen_) {
      if (e.first == name) return e.second;
    }
    const db::Master* m = lib_->findMaster(name);
    char* buf = static_cast<char*>(util::scratchArena().allocate(
        std::max<std::size_t>(name.size(), 1), 1));
    std::memcpy(buf, name.data(), name.size());
    seen_.emplace_back(std::string_view(buf, name.size()), m);
    return m;
  }

 private:
  using Entry = std::pair<std::string_view, const db::Master*>;
  const db::Library* lib_;
  util::ArenaVector<Entry> seen_;
};

/// One COMPONENTS entity (leading '-' consumed).
db::Instance parseComponent(Lexer& lex, MasterCache& masters) {
  db::Instance inst;
  inst.name = std::string(lex.next());
  const std::string masterName(lex.next());
  inst.master = masters.find(masterName);
  if (inst.master == nullptr) {
    throw ParseError(lex.diagPrev(
        "DEF002",
        "component references unknown master '" + masterName + "'"));
  }
  while (!lex.accept(";")) {
    if (lex.accept("+")) {
      const std::string_view kw = lex.next();
      if (kw == "PLACED" || kw == "FIXED") {
        lex.expect("(");
        inst.origin.x = lex.nextInt();
        inst.origin.y = lex.nextInt();
        lex.expect(")");
        inst.orient = geom::orientFromString(lex.next());
      }
    } else {
      lex.next();
    }
  }
  return inst;
}

/// One PINS entity (leading '-' consumed).
db::IoPin parsePin(Lexer& lex, const db::Tech& tech) {
  db::IoPin pin;
  pin.name = std::string(lex.next());
  geom::Rect shape;
  geom::Point placed;
  while (!lex.accept(";")) {
    if (lex.accept("+")) {
      const std::string_view kw = lex.next();
      if (kw == "LAYER") {
        const db::Layer* layer = tech.findLayer(lex.next());
        pin.layer = layer ? layer->index : -1;
        lex.expect("(");
        const geom::Coord x1 = lex.nextInt();
        const geom::Coord y1 = lex.nextInt();
        lex.expect(")");
        lex.expect("(");
        const geom::Coord x2 = lex.nextInt();
        const geom::Coord y2 = lex.nextInt();
        lex.expect(")");
        shape = {x1, y1, x2, y2};
      } else if (kw == "PLACED" || kw == "FIXED") {
        lex.expect("(");
        placed.x = lex.nextInt();
        placed.y = lex.nextInt();
        lex.expect(")");
        lex.next();  // orient
      }
    } else {
      lex.next();
    }
  }
  pin.rect = shape.translate(placed.x, placed.y);
  return pin;
}

/// One NETS entity (leading '-' consumed). Instance and IO pin names
/// resolve against `design`, which already holds the COMPONENTS and PINS
/// sections (the in-file-order parse guarantees this), through its
/// instance-name index and `ioPins`, the caller's first-match index over
/// design.ioPins.
db::Net parseNet(Lexer& lex, const Design& design,
                 const util::NameIndex& ioPins) {
  db::Net net;
  net.name = std::string(lex.next());
  while (!lex.accept(";")) {
    if (lex.peek() == "+") {
      // '+' attributes (ROUTED wiring, USE, ...) follow the terms; skip
      // the remainder of this net statement.
      while (!lex.accept(";")) lex.next();
      break;
    }
    if (lex.accept("(")) {
      const std::string_view a = lex.next();
      db::NetTerm term;
      if (a != "PIN") {
        term.instIdx = design.findInstance(a);
        if (term.instIdx < 0) {
          throw ParseError(lex.diagPrev(
              "DEF004",
              "net references unknown component '" + std::string(a) + "'"));
        }
      }
      const std::string_view b = lex.next();
      if (a == "PIN") {
        term.ioPinIdx = ioPins.find(b, [&](int i) {
          return std::string_view(design.ioPins[i].name);
        });
        if (term.ioPinIdx < 0) {
          throw ParseError(lex.diagPrev(
              "DEF003", "net references unknown IO pin '" + std::string(b) +
                            "'"));
        }
      } else {
        const db::Master& m = *design.instances[term.instIdx].master;
        for (int i = 0; i < static_cast<int>(m.pins.size()); ++i) {
          if (m.pins[i].name == b) {
            term.pinIdx = i;
            break;
          }
        }
        if (term.pinIdx < 0) {
          throw ParseError(lex.diagPrev(
              "DEF005", "net references unknown pin '" + std::string(b) +
                            "' on '" + std::string(a) + "'"));
        }
      }
      lex.expect(")");
      net.terms.push_back(term);
    } else {
      lex.next();
    }
  }
  return net;
}

/// Top-level statements outside the entity sections: DESIGN, UNITS,
/// DIEAREA, ROW, TRACKS, END, and the skip-unknown default. Returns false
/// when the current token opens a section (COMPONENTS/PINS/NETS) the
/// caller must handle.
bool parseSimpleStatement(Lexer& lex, Design& design, int& dbu) {
  const std::string_view tok = lex.peek();
  if (tok == "COMPONENTS" || tok == "PINS" || tok == "NETS") return false;
  if (tok == "DESIGN") {
    lex.next();
    design.name = std::string(lex.next());
    lex.expect(";");
  } else if (tok == "UNITS") {
    lex.next();
    lex.expect("DISTANCE");
    lex.expect("MICRONS");
    dbu = static_cast<int>(lex.nextInt());
    lex.expect(";");
  } else if (tok == "DIEAREA") {
    lex.next();
    lex.expect("(");
    const geom::Coord x1 = lex.nextInt();
    const geom::Coord y1 = lex.nextInt();
    lex.expect(")");
    lex.expect("(");
    const geom::Coord x2 = lex.nextInt();
    const geom::Coord y2 = lex.nextInt();
    lex.expect(")");
    lex.expect(";");
    design.dieArea = {x1, y1, x2, y2};
  } else if (tok == "ROW") {
    parseRow(lex, design);
  } else if (tok == "TRACKS") {
    parseTracks(lex, design);
  } else if (tok == "END") {
    lex.next();
    if (!lex.done()) lex.next();
  } else {
    lex.skipStatement();
  }
  return true;
}

// -------------------------------------------------------------- the driver

/// "Chunks cover the section" sentinel for ChunkOut::resumeAt, and the
/// last chunk's ChunkRange::semi.
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Byte range of one chunk: up to the cut '-' after the ';' at `semi`, or
/// for the last chunk (semi == kNone) up to the END look-alike, though its
/// lexer runs to the end of the text and stops at the section's real END.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t semi = kNone;
};

/// Cuts the section's entity bytes, from its first entity `begin`, into
/// chunks that each end at their last cut (a ';', whitespace, a '-' token)
/// within `target` bytes, or their first when the first entity is longer:
/// on well-formed input, what an entity-by-entity packing picks. No cut
/// lies at or past the first stand-alone END (the section's, or a
/// look-alike, which only lengthens the last chunk).
std::vector<ChunkRange> cutChunks(std::string_view text, std::size_t begin,
                                  std::size_t target) {
  const auto space = [&](std::size_t p) {
    return p < text.size() && std::isspace(static_cast<unsigned char>(text[p]));
  };
  // The '-' ending the cut whose ';' is at `semi`, or kNone.
  const auto dashAfter = [&](std::size_t semi) {
    std::size_t p = semi + 1;
    while (space(p)) ++p;
    return p < text.size() && text[p] == '-' && space(p + 1) ? p : kNone;
  };
  std::size_t bound = text.find("END", begin);
  while (bound != std::string_view::npos &&
         !((space(bound - 1) || text[bound - 1] == ';') &&
           (bound + 3 == text.size() || space(bound + 3)))) {
    bound = text.find("END", bound + 1);
  }
  bound = std::min(bound, text.size());
  target = std::max<std::size_t>(target, 1);
  std::vector<ChunkRange> chunks;
  while (bound - begin > target) {
    std::size_t semi = text.rfind(';', begin + target - 1);
    while (semi != std::string_view::npos && semi > begin &&
           dashAfter(semi) > begin + target) {
      semi = text.rfind(';', semi - 1);
    }
    if (semi == std::string_view::npos || semi <= begin) {
      semi = text.find(';', begin);
      while (semi < bound && dashAfter(semi) >= bound) {
        semi = text.find(';', semi + 1);
      }
      if (semi >= bound) break;
    }
    chunks.push_back({begin, dashAfter(semi), semi});
    begin = chunks.back().end;
  }
  chunks.push_back({begin, bound, kNone});
  return chunks;
}

/// Per-chunk parse output. Instances/nets commit in chunk order, so the
/// merged result is independent of the schedule.
template <typename Entity>
struct ChunkOut {
  std::vector<Entity> parsed;
  std::vector<util::Diag> diags;
  /// parsedBefore[i]: how many entities of `parsed` precede diags[i] in
  /// the file. The merge commits exactly those before recording the diag,
  /// so a maxErrors bail-out leaves the serial parse's partial state.
  std::vector<std::size_t> parsedBefore;
  /// Strict mode: the first entity error in this chunk. The in-order merge
  /// rethrows the earliest chunk's failure so the file-first error wins
  /// even when a later chunk finished sooner.
  std::optional<util::Diag> failure;
  /// Byte offset where the serial section loop must take over, because
  /// from there on this chunk cannot know what a serial parse does: a
  /// non-entity token its loop stopped at (the section's END in the last
  /// chunk; junk after a successfully parsed entity, where the serial loop
  /// ends), the start of an entity whose parse ran into the chunk's end (a
  /// malformed entity that a serial parse would continue into the next
  /// chunk's bytes), or the start of the last entity before a cut that
  /// does not hold. The merge discards every later chunk.
  std::size_t resumeAt = kNone;
  /// Offset of the last token the chunk's lexer consumed: where lex_ is
  /// left when no chunk hands over.
  std::size_t lastOffset = 0;
};

class StreamDefParser {
 public:
  StreamDefParser(std::string_view text, Design& design,
                  const StreamOptions& opts, IngestStats* stats)
      : text_(text),
        lines_(text),
        opts_(opts),
        lex_(text, lines_, opts.parse.file),
        design_(design),
        stats_(stats) {}

  ParseResult run() {
    local_ = design_;
    try {
      // A strict-mode ParseError propagates from here with the caller's
      // design untouched (the partial parse lives in the discarded
      // local_).
      while (!lex_.done()) {
        const std::size_t before = lex_.pos();
        try {
          step();
        } catch (const ParseError& e) {
          if (!opts_.parse.recover) throw;
          record(e.diag);
          resync(before, {"DESIGN", "UNITS", "DIEAREA", "ROW", "TRACKS",
                          "COMPONENTS", "PINS", "NETS", "END"});
        }
      }
    } catch (const Bail&) {
      // maxErrors reached: res_ ends with GEN001 and local_ holds what was
      // committed before the diagnostic that reached the limit, possibly
      // part of a COMPONENTS section whose names are not indexed yet.
      local_.buildInstanceIndex();
      if (stats_ != nullptr) stats_->legacyFallback = true;
    }
    const std::size_t instBefore = design_.instances.size();
    const std::size_t netsBefore = design_.nets.size();
    design_ = std::move(local_);
    finishStats(design_.instances.size() - instBefore,
                design_.nets.size() - netsBefore);
    return std::move(res_);
  }

 private:
  /// Thrown (recovery mode only) once maxErrors is reached.
  struct Bail {};

  void record(const util::Diag& d) {
    res_.diags.push_back(d);
    if (res_.errorCount() >= opts_.parse.maxErrors) {
      res_.diags.push_back(tooManyErrors(opts_.parse.file));
      throw Bail{};
    }
  }

  /// Progress guard + resync: never re-dispatch the failing token.
  void resync(std::size_t before,
              std::initializer_list<std::string_view> stops) {
    if (lex_.pos() == before && !lex_.done()) lex_.next();
    lex_.syncTo(stops);
  }

  void step() {
    if (parseSimpleStatement(lex_, local_, dbu_)) return;
    const std::string_view tok = lex_.peek();
    if (tok == "COMPONENTS") {
      parseComponents();
    } else if (tok == "PINS") {
      parsePins();
    } else {
      parseNets();
    }
  }

  /// Merges chunk outputs in chunk (= file) order: entities append to
  /// `sink`, each diagnostic flows through record() right after the
  /// entities that precede it, so the maxErrors bail-out fires on the same
  /// diagnostic and with the same entities committed as a serial parse. A
  /// strict-mode failure rethrows here (earliest chunk = file-first
  /// error). Returns the first chunk's resumeAt offset — every later chunk
  /// is discarded, entities and diagnostics alike — or kNone.
  template <typename Entity>
  std::size_t mergeChunks(std::vector<ChunkOut<Entity>>& outs,
                          std::vector<Entity>& sink) {
    std::size_t total = 0;
    for (const ChunkOut<Entity>& out : outs) total += out.parsed.size();
    sink.reserve(sink.size() + total);
    for (ChunkOut<Entity>& out : outs) {
      std::size_t committed = 0;
      const auto commitUpTo = [&](std::size_t n) {
        for (; committed < n; ++committed) {
          sink.push_back(std::move(out.parsed[committed]));
        }
      };
      for (std::size_t i = 0; i < out.diags.size(); ++i) {
        commitUpTo(out.parsedBefore[i]);
        record(out.diags[i]);
      }
      commitUpTo(out.parsed.size());
      if (out.failure) throw ParseError(std::move(*out.failure));
      if (out.resumeAt != kNone) return out.resumeAt;
    }
    return kNone;
  }

  /// The serial section loop, with per-entity recovery: a bad entity is
  /// dropped and reported, the rest of the section still parses.
  template <typename ParseOne>
  void serialEntities(ParseOne&& parseOne) {
    while (lex_.accept("-")) {
      const std::size_t before = lex_.pos();
      try {
        parseOne();
      } catch (const ParseError& e) {
        if (!opts_.parse.recover) throw;
        record(e.diag);
        resync(before, {"-", "END"});
      }
    }
  }

  /// A COMPONENTS/NETS section's entities, appended to `sink`. The bytes
  /// are cut into chunks and each chunk's entity loop runs as one job: the
  /// serial section loop over a bounded lexer, with per-entity recovery
  /// (error counting is deferred to the in-order merge). After the merge
  /// the serial section loop runs from wherever the chunks stop being
  /// usable; on well-formed input that is the section's END, where it
  /// parses nothing. `makeParseOne` returns the entity-parsing callable:
  /// it is invoked once per chunk on the worker, inside the chunk's
  /// ArenaScope, so chunk-local state lives on the worker's arena, and
  /// once more for the serial loop.
  template <typename Entity, typename MakeParseOne>
  void parseEntities(std::vector<Entity>& sink, MakeParseOne makeParseOne) {
    if (lex_.peek() != "-") return;
    const std::vector<ChunkRange> chunks =
        cutChunks(text_, lex_.byteOffset(), opts_.chunkBytes);
    std::vector<ChunkOut<Entity>> outs(chunks.size());
    util::JobGraph graph;
    graph.addJobRange(chunks.size(), [&](std::size_t ci) {
      util::ArenaScope scope(util::scratchArena());
      const ChunkRange& range = chunks[ci];
      ChunkOut<Entity>& out = outs[ci];
      // A well-formed entity holds one ';', so this is its count.
      out.parsed.reserve(static_cast<std::size_t>(
          std::count(text_.begin() + static_cast<std::ptrdiff_t>(range.begin),
                     text_.begin() + static_cast<std::ptrdiff_t>(range.end),
                     ';')));
      Lexer cl(text_, range.begin,
               range.semi == kNone ? text_.size() : range.end, lines_,
               opts_.parse.file);
      auto parseOne = makeParseOne();
      // The last entity begun, and how much output precedes it.
      std::size_t lastStart = 0;
      std::size_t lastParsed = 0;
      std::size_t lastDiags = 0;
      for (;;) {
        const std::size_t entityStart = cl.byteOffset();
        if (!cl.accept("-")) {
          // Junk, or the section's END in the last chunk: the serial
          // section loop ends at this exact token.
          if (!cl.done()) out.resumeAt = entityStart;
          break;
        }
        lastStart = entityStart;
        lastParsed = out.parsed.size();
        lastDiags = out.diags.size();
        const std::size_t before = cl.pos();
        try {
          out.parsed.push_back(parseOne(cl));
        } catch (const ParseError& e) {
          if (cl.done()) {
            // The entity ran into the chunk's end: only a serial parse
            // knows how it continues.
            out.resumeAt = entityStart;
            break;
          }
          if (!opts_.parse.recover) {
            // Strict mode: stop this chunk at its first error. Jobs never
            // throw; the in-order merge rethrows the earliest chunk's
            // failure, so a resumeAt in an earlier chunk still wins.
            out.failure = e.diag;
            break;
          }
          out.diags.push_back(e.diag);
          out.parsedBefore.push_back(out.parsed.size());
          if (cl.pos() == before && !cl.done()) cl.next();
          cl.syncTo({"-", "END"});
        }
      }
      // The cut after the chunk holds only when the chunk's last consumed
      // token is the cut's ';': the chunk then read the tokens a serial
      // parse reads, and the serial loop would next see the following
      // chunk's '-'. Otherwise the ';' sat in a comment or a quoted string
      // (or an error stopped the chunk early): the chunk's last entity goes
      // back to the serial loop, which starts at the entity, never inside.
      out.lastOffset = cl.lastOffset();
      if (range.semi != kNone && out.resumeAt == kNone &&
          out.lastOffset != range.semi) {
        out.parsed.erase(out.parsed.begin() +
                             static_cast<std::ptrdiff_t>(lastParsed),
                         out.parsed.end());
        out.diags.resize(lastDiags);
        out.parsedBefore.resize(lastDiags);
        out.failure.reset();
        out.resumeAt = lastStart;
      }
    });
    // Chunk jobs are independent and added in file order; strict-mode
    // errors and serial take-overs are resolved by the in-order merge.
    graph.run(opts_.numThreads);
    if (stats_ != nullptr) stats_->chunks += chunks.size();
    const std::size_t resume = mergeChunks(outs, sink);
    if (resume == kNone) {
      // The last chunk's lexer ran to the end of the text. Leave lex_ on
      // the token it consumed last: diagnostics at the end of truncated
      // input point there.
      lex_.seekTo(outs.back().lastOffset);
      lex_.next();
      return;
    }
    lex_.seekTo(resume);
    util::ArenaScope scope(util::scratchArena());
    auto parseOne = makeParseOne();
    serialEntities([&] { sink.push_back(parseOne(lex_)); });
    if (stats_ != nullptr) stats_->serialBytes += lex_.byteOffset() - resume;
  }

  void parseComponents() {
    lex_.expect("COMPONENTS");
    lex_.nextInt();
    lex_.expect(";");
    parseEntities(local_.instances, [this] {
      return [masters = MasterCache(*local_.lib)](Lexer& lex) mutable {
        return parseComponent(lex, masters);
      };
    });
    // The design's one name index: NETS resolves through it.
    local_.buildInstanceIndex();
    lex_.expect("END");
    lex_.expect("COMPONENTS");
  }

  void parsePins() {
    lex_.expect("PINS");
    lex_.nextInt();
    lex_.expect(";");
    serialEntities(
        [&] { local_.ioPins.push_back(parsePin(lex_, *local_.tech)); });
    lex_.expect("END");
    lex_.expect("PINS");
  }

  void parseNets() {
    lex_.expect("NETS");
    lex_.nextInt();
    lex_.expect(";");
    // IO pin names for `( PIN name )` terms. The first pin of a name wins:
    // inserted back to front into the last-wins index.
    util::NameIndex ioPins;
    ioPins.reset(local_.ioPins.size());
    const auto pinName = [this](int i) {
      return std::string_view(local_.ioPins[i].name);
    };
    for (int i = static_cast<int>(local_.ioPins.size()) - 1; i >= 0; --i) {
      ioPins.insert(pinName(i), i, pinName);
    }
    parseEntities(local_.nets, [this, &ioPins] {
      return [this, &ioPins](Lexer& lex) {
        return parseNet(lex, local_, ioPins);
      };
    });
    lex_.expect("END");
    lex_.expect("NETS");
  }

  void finishStats(std::size_t components, std::size_t nets) {
    if (stats_ != nullptr) {
      stats_->bytes = text_.size();
      stats_->components += components;
      stats_->nets += nets;
    }
    PAO_COUNTER_ADD("pao.ingest.def_bytes",
                    static_cast<long long>(text_.size()));
    PAO_COUNTER_ADD("pao.ingest.components", static_cast<long long>(components));
    PAO_COUNTER_ADD("pao.ingest.nets", static_cast<long long>(nets));
  }

  std::string_view text_;
  LineIndex lines_;
  StreamOptions opts_;
  Lexer lex_;
  Design& design_;
  IngestStats* stats_;
  Design local_;
  ParseResult res_;
  int dbu_ = 2000;
};

}  // namespace

ParseResult parseDefStream(std::string_view text, db::Design& design,
                           const StreamOptions& opts, IngestStats* stats) {
  return StreamDefParser(text, design, opts, stats).run();
}

void parseDef(std::string_view text, db::Design& design) {
  parseDef(text, design, ParseOptions{});
}

ParseResult parseDef(std::string_view text, db::Design& design,
                     const ParseOptions& opts) {
  return parseDefStream(text, design, StreamOptions{opts, 1});
}

ParseResult parseDefFile(const std::string& path, db::Design& design,
                         const StreamOptions& opts, IngestStats* stats) {
  PAO_FAULT_INJECT("def.io");
  const auto t0 = std::chrono::steady_clock::now();
  FileSource src(path);
  ParseResult r = parseDefStream(src.text(), design, opts, stats);
  if (stats != nullptr) {
    stats->mapped = src.mapped();
    stats->parseSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  return r;
}

ParseResult parseLefFile(const std::string& path, db::Tech& tech,
                         db::Library& lib, const ParseOptions& opts,
                         IngestStats* stats) {
  PAO_FAULT_INJECT("lef.io");
  const auto t0 = std::chrono::steady_clock::now();
  FileSource src(path);
  ParseResult r = parseLef(src.text(), tech, lib, opts);
  if (stats != nullptr) {
    stats->bytes = src.sizeBytes();
    stats->mapped = src.mapped();
    stats->parseSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  PAO_COUNTER_ADD("pao.ingest.lef_bytes",
                  static_cast<long long>(src.sizeBytes()));
  return r;
}

}  // namespace pao::lefdef
