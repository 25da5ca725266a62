#include "lefdef/stream.hpp"

#include <algorithm>
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
#include "util/interner.hpp"
#include "util/jobs.hpp"

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

/// Component name -> instance index over the merged instances. The
/// interned id is dense in first-appearance order, so idToInst_ is a flat
/// array and each lookup is one hash probe with no std::string
/// construction. Duplicate names keep the last index, the same last-wins
/// rule as Design::buildInstanceIndex.
class ComponentIndex {
 public:
  explicit ComponentIndex(const std::vector<db::Instance>& instances) {
    idToInst_.reserve(instances.size());
    for (int i = 0; i < static_cast<int>(instances.size()); ++i) {
      const std::uint32_t id = names_.intern(instances[i].name);
      if (id == static_cast<std::uint32_t>(idToInst_.size())) {
        idToInst_.push_back(i);
      } else {
        idToInst_[id] = i;
      }
    }
  }

  /// Instance index of `name`, or -1.
  int find(std::string_view name) const {
    const std::uint32_t id = names_.find(name);
    return id == util::StringInterner::kNone ? -1 : idToInst_[id];
  }

 private:
  util::StringInterner names_;
  std::vector<int> idToInst_;
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

/// One NETS entity (leading '-' consumed). Instance pin and IO pin names
/// resolve against `design`, which already holds the COMPONENTS and PINS
/// sections (the in-file-order parse guarantees this).
db::Net parseNet(Lexer& lex, const Design& design,
                 const ComponentIndex& components) {
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
      const std::string a(lex.next());
      db::NetTerm term;
      if (a != "PIN") {
        term.instIdx = components.find(a);
        if (term.instIdx < 0) {
          throw ParseError(lex.diagPrev(
              "DEF004", "net references unknown component '" + a + "'"));
        }
      }
      const std::string b(lex.next());
      if (a == "PIN") {
        for (int i = 0; i < static_cast<int>(design.ioPins.size()); ++i) {
          if (design.ioPins[i].name == b) {
            term.ioPinIdx = i;
            break;
          }
        }
        if (term.ioPinIdx < 0) {
          throw ParseError(lex.diagPrev(
              "DEF003", "net references unknown IO pin '" + b + "'"));
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
              "DEF005",
              "net references unknown pin '" + b + "' on '" + a + "'"));
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

/// Entity layout of one COMPONENTS/NETS section: byte offsets of every
/// `-` entity start (positions where a serial section loop begins an
/// iteration) plus the offset where the entity region ends (the END
/// keyword, trailing junk, or end of input).
struct SectionScan {
  std::vector<std::size_t> starts;
  std::size_t regionEnd = 0;
};

/// Byte range of one chunk plus the number of entities it holds.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t entities = 0;
};

/// "Chunks cover the section" sentinel for ChunkOut::resumeAt.
constexpr std::size_t kNoResume = static_cast<std::size_t>(-1);

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
  /// non-entity token its loop stopped at (junk after a successfully
  /// parsed entity, where the serial loop ends), or the start of an entity
  /// whose parse ran into the chunk's end (a malformed entity that a
  /// serial parse would continue into the next chunk's bytes). The merge
  /// discards every later chunk.
  std::size_t resumeAt = kNoResume;
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
      // committed before the diagnostic that reached the limit.
      if (stats_ != nullptr) stats_->legacyFallback = true;
    }
    local_.buildInstanceIndex();
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

  /// Tokenizes (without parsing) through a section's entity region,
  /// recording entity-start offsets. Entities begin at a `-` in statement
  /// position (= right after a consumed ';', where the section loop
  /// tests), so `-` tokens inside an entity never start a chunk; an
  /// entity's bytes run to the next statement position. Leaves lex_ at
  /// the region end.
  SectionScan scanEntities() {
    SectionScan scan;
    while (!lex_.done() && lex_.peek() == "-") {
      scan.starts.push_back(lex_.byteOffset());
      lex_.next();
      while (!lex_.done() && lex_.next() != ";") {
      }
      // Junk tokens between this entity's ';' and the next '-'/END belong
      // to this entity's byte range: the serial parse reaches them either
      // inside a failed entity's resync (which skips ahead to '-'/END) or
      // at the loop condition after a successful parse, where the section
      // stops. The chunk runner reproduces both (see resumeAt).
      while (!lex_.done() && lex_.peek() != "-" && lex_.peek() != "END") {
        lex_.next();
      }
    }
    scan.regionEnd = lex_.byteOffset();
    return scan;
  }

  /// Groups scanned entities into byte-contiguous chunks of roughly
  /// opts_.chunkBytes. Chunking granularity is schedule only — results
  /// are committed per entity in file order regardless.
  std::vector<ChunkRange> makeChunks(const SectionScan& scan) const {
    std::vector<ChunkRange> chunks;
    if (scan.starts.empty()) return chunks;
    const std::size_t target = std::max<std::size_t>(1, opts_.chunkBytes);
    ChunkRange cur{scan.starts[0], 0, 0};
    for (std::size_t i = 0; i < scan.starts.size(); ++i) {
      const std::size_t entityEnd =
          i + 1 < scan.starts.size() ? scan.starts[i + 1] : scan.regionEnd;
      if (cur.entities > 0 && entityEnd - cur.begin > target) {
        cur.end = scan.starts[i];
        chunks.push_back(cur);
        cur = {scan.starts[i], 0, 0};
      }
      ++cur.entities;
      cur.end = entityEnd;
    }
    chunks.push_back(cur);
    return chunks;
  }

  /// Scans the current section's entity region, cuts it into chunks and
  /// runs each chunk's entity loop — the serial section loop over a
  /// bounded Lexer, with per-entity recovery (error counting is deferred
  /// to the in-order merge). `makeParseOne` is invoked once per chunk on
  /// the worker thread, inside the chunk's ArenaScope, and returns the
  /// entity-parsing callable, so chunk-local state lives on the worker's
  /// arena.
  template <typename Entity, typename MakeParseOne>
  std::vector<ChunkOut<Entity>> runChunks(MakeParseOne makeParseOne) {
    const std::vector<ChunkRange> chunks = makeChunks(scanEntities());
    std::vector<ChunkOut<Entity>> outs(chunks.size());
    util::JobGraph graph;
    graph.addJobRange(chunks.size(), [&](std::size_t ci) {
      util::ArenaScope scope(util::scratchArena());
      const ChunkRange& range = chunks[ci];
      ChunkOut<Entity>& out = outs[ci];
      out.parsed.reserve(range.entities);
      Lexer cl(text_, range.begin, range.end, lines_, opts_.parse.file);
      auto parseOne = makeParseOne();
      for (;;) {
        const std::size_t entityStart = cl.byteOffset();
        if (!cl.accept("-")) break;
        const std::size_t before = cl.pos();
        try {
          out.parsed.push_back(parseOne(cl));
        } catch (const ParseError& e) {
          if (cl.done()) {
            // The entity ran into the chunk's end: only a serial parse
            // knows how it continues.
            out.resumeAt = entityStart;
            return;
          }
          if (!opts_.parse.recover) {
            // Strict mode: stop this chunk at its first error. Jobs never
            // throw; the in-order merge rethrows the earliest chunk's
            // failure, so a resumeAt in an earlier chunk still wins.
            out.failure = e.diag;
            return;
          }
          out.diags.push_back(e.diag);
          out.parsedBefore.push_back(out.parsed.size());
          if (cl.pos() == before && !cl.done()) cl.next();
          cl.syncTo({"-", "END"});
        }
      }
      // The loop exits mid-chunk only on junk that isn't an entity start
      // (chunks end at entity boundaries, and a failed entity's resync
      // already consumed its trailing junk). The serial section loop ends
      // at this exact token.
      if (!cl.done()) out.resumeAt = cl.byteOffset();
    });
    // Chunk jobs are independent and added in file order; strict-mode
    // errors and serial take-overs are resolved by the in-order merge.
    graph.run(opts_.numThreads);
    if (stats_ != nullptr) stats_->chunks += chunks.size();
    return outs;
  }

  /// Merges chunk outputs in chunk (= file) order: entities append to
  /// `sink`, each diagnostic flows through record() right after the
  /// entities that precede it, so the maxErrors bail-out fires on the same
  /// diagnostic and with the same entities committed as a serial parse. A
  /// strict-mode failure rethrows here (earliest chunk = file-first
  /// error). Returns the first chunk's resumeAt offset — every later chunk
  /// is discarded, entities and diagnostics alike — or kNoResume.
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
      if (out.resumeAt != kNoResume) return out.resumeAt;
    }
    return kNoResume;
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

  void parseComponents() {
    lex_.expect("COMPONENTS");
    lex_.nextInt();
    lex_.expect(";");
    auto outs = runChunks<db::Instance>([this] {
      return [masters = MasterCache(*local_.lib)](Lexer& cl) mutable {
        return parseComponent(cl, masters);
      };
    });
    const std::size_t resume = mergeChunks(outs, local_.instances);
    if (resume != kNoResume) {
      lex_.seekTo(resume);
      util::ArenaScope scope(util::scratchArena());
      MasterCache masters(*local_.lib);
      serialEntities([&] {
        local_.instances.push_back(parseComponent(lex_, masters));
      });
    }
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
    const ComponentIndex components(local_.instances);
    auto outs = runChunks<db::Net>([this, &components] {
      return [this, &components](Lexer& cl) {
        return parseNet(cl, local_, components);
      };
    });
    const std::size_t resume = mergeChunks(outs, local_.nets);
    if (resume != kNoResume) {
      lex_.seekTo(resume);
      serialEntities([&] {
        local_.nets.push_back(parseNet(lex_, local_, components));
      });
    }
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
