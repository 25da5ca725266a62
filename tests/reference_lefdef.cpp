// Reference LEF/DEF tokenizer and DEF parser (see reference.hpp): the
// eager Lexer, which materializes every token up front, the DEF grammar
// instantiated for it, and the single-pass DefParser driver, as they were
// before the lazy lexer and the chunked driver became the only parse path.
// Only the namespace changed, the LEF-only nextDbu() is left out, and
// newlines inside a quoted string now count (see the constructor);
// ParseError, ParseOptions, ParseResult, tooManyErrors and roundClamped are
// the shared ones from lefdef/lexer.hpp.
#include <cctype>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "reference.hpp"

namespace pao::reference {
namespace {

using lefdef::ParseError;
using lefdef::ParseOptions;
using lefdef::ParseResult;
using lefdef::roundClamped;
using lefdef::tooManyErrors;

class Lexer {
 public:
  explicit Lexer(std::string_view text, std::string_view file = "<input>");

  bool done() const { return pos_ >= tokens_.size(); }
  /// Current token without consuming ("" at end of input).
  std::string_view peek(std::size_t ahead = 0) const;
  /// Consumes and returns the current token.
  std::string_view next();
  /// Consumes the current token iff it equals `tok`.
  bool accept(std::string_view tok);
  /// Consumes the current token, raising ParseError unless it equals `tok`.
  void expect(std::string_view tok);
  /// Consumes tokens up to and including the next ';'. Raises LEX001 if
  /// input ends first (truncated statement).
  void skipStatement();

  /// Consumes a token and parses it as a decimal number (may be fractional).
  double nextDouble();
  /// Consumes a token and parses it as an integer.
  long long nextInt();

  /// Line/column of the current token (the last token at end of input).
  std::size_t line() const;
  std::size_t col() const;
  /// Position in the token stream — recovery progress guard.
  std::size_t pos() const { return pos_; }

  /// Error-recovery resync: consumes tokens until a ';' has been consumed
  /// or the next token is one of `stops` (or input ends). Unlike
  /// skipStatement() this refuses to eat a following statement whose
  /// keyword is a known resync point.
  void syncTo(std::initializer_list<std::string_view> stops);

  /// Located diagnostic at the current token (diagHere) or at the most
  /// recently consumed token (diagPrev — for semantic errors discovered
  /// after consuming, e.g. "unknown master 'X'").
  util::Diag diagHere(std::string_view code, std::string message) const;
  util::Diag diagPrev(std::string_view code, std::string message) const;

 private:
  util::Diag diagAt(std::size_t tokIdx, std::string_view code,
                    std::string message) const;
  /// The full source line `line` lives on (1-based; "" when unknown).
  std::string lineText(std::size_t line) const;

  std::string file_;
  std::string source_;                  ///< owned copy for excerpts
  std::vector<std::size_t> lineStart_;  ///< offset of each line in source_
  std::vector<std::string> tokens_;
  std::vector<std::size_t> lines_;
  std::vector<std::size_t> cols_;
  std::size_t pos_ = 0;
};

Lexer::Lexer(std::string_view text, std::string_view file)
    : file_(file), source_(text) {
  std::size_t line = 1;
  std::size_t lineStart = 0;
  lineStart_.push_back(0);
  std::size_t i = 0;
  const std::size_t n = text.size();
  const auto push = [&](std::string_view tok, std::size_t at) {
    tokens_.emplace_back(tok);
    lines_.push_back(line);
    cols_.push_back(at - lineStart + 1);
  };
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      lineStart = i;
      lineStart_.push_back(i);
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') {  // comment to end of line
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (c == ';' || c == '(' || c == ')') {
      push(std::string_view(&text[i], 1), i);
      ++i;
      continue;
    }
    if (c == '"') {
      std::size_t j = i + 1;
      while (j < n && text[j] != '"') ++j;
      push(text.substr(i + 1, j - i - 1), i);
      // Newlines inside the string still start lines. The original skipped
      // them, numbering every later token's line too low; this loop is the
      // one fix made to the frozen copy.
      for (std::size_t k = i + 1; k < j; ++k) {
        if (text[k] == '\n') {
          ++line;
          lineStart = k + 1;
          lineStart_.push_back(k + 1);
        }
      }
      i = j < n ? j + 1 : j;
      continue;
    }
    std::size_t j = i;
    while (j < n && !std::isspace(static_cast<unsigned char>(text[j])) &&
           text[j] != ';' && text[j] != '(' && text[j] != ')' &&
           text[j] != '#') {
      ++j;
    }
    push(text.substr(i, j - i), i);
    i = j;
  }
}

std::string_view Lexer::peek(std::size_t ahead) const {
  return pos_ + ahead < tokens_.size() ? std::string_view(tokens_[pos_ + ahead])
                                       : std::string_view();
}

std::string_view Lexer::next() {
  if (done()) throw ParseError(diagHere("LEX001", "unexpected end of input"));
  return tokens_[pos_++];
}

bool Lexer::accept(std::string_view tok) {
  if (!done() && tokens_[pos_] == tok) {
    ++pos_;
    return true;
  }
  return false;
}

void Lexer::expect(std::string_view tok) {
  if (done() || tokens_[pos_] != tok) {
    const std::string got =
        done() ? "end of input" : "'" + tokens_[pos_] + "'";
    throw ParseError(diagHere(
        "LEX002", "expected '" + std::string(tok) + "', got " + got));
  }
  ++pos_;
}

void Lexer::skipStatement() {
  // next() raises LEX001 if input ends before the ';': a silent return at
  // end of input would leave callers' `while (!accept("END"))` loops
  // spinning forever on truncated files.
  while (next() != ";") {
  }
}

void Lexer::syncTo(std::initializer_list<std::string_view> stops) {
  while (!done()) {
    const std::string_view tok = peek();
    for (const std::string_view stop : stops) {
      if (tok == stop) return;
    }
    if (next() == ";") return;
  }
}

double Lexer::nextDouble() {
  const std::string tok(next());
  try {
    return std::stod(tok);
  } catch (const std::exception&) {
    throw ParseError(diagPrev("LEX003", "expected number, got '" + tok + "'"));
  }
}

long long Lexer::nextInt() {
  return roundClamped(nextDouble());
}

std::size_t Lexer::line() const {
  if (lines_.empty()) return 0;
  return pos_ < lines_.size() ? lines_[pos_] : lines_.back();
}

std::size_t Lexer::col() const {
  if (cols_.empty()) return 0;
  return pos_ < cols_.size() ? cols_[pos_] : cols_.back();
}

util::Diag Lexer::diagHere(std::string_view code, std::string message) const {
  // At end of input point at the last token — the caller is reporting
  // "input ended while I expected more", and the last token is where.
  const std::size_t idx =
      tokens_.empty() ? 0 : (pos_ < tokens_.size() ? pos_ : tokens_.size() - 1);
  return diagAt(idx, code, std::move(message));
}

util::Diag Lexer::diagPrev(std::string_view code, std::string message) const {
  const std::size_t idx = pos_ > 0 ? pos_ - 1 : 0;
  return diagAt(idx, code, std::move(message));
}

util::Diag Lexer::diagAt(std::size_t tokIdx, std::string_view code,
                         std::string message) const {
  util::Diag d;
  d.code = std::string(code);
  d.message = std::move(message);
  d.loc.file = file_;
  if (tokIdx < tokens_.size()) {
    d.loc.line = lines_[tokIdx];
    d.loc.col = cols_[tokIdx];
    d.excerpt = lineText(d.loc.line);
  }
  return d;
}

std::string Lexer::lineText(std::size_t line) const {
  if (line == 0 || line > lineStart_.size()) return std::string();
  const std::size_t begin = lineStart_[line - 1];
  std::size_t end = source_.find('\n', begin);
  if (end == std::string::npos) end = source_.size();
  return source_.substr(begin, end - begin);
}

void parseRowEntity(Lexer& lex, db::Design& design) {
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

void parseTracksEntity(Lexer& lex, db::Design& design) {
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

/// One COMPONENTS entity (leading '-' consumed). `resolveMaster` maps a
/// master name to a const db::Master* (null for unknown -> DEF002).
template <typename ResolveMaster>
db::Instance parseComponentEntity(Lexer& lex, ResolveMaster&& resolveMaster) {
  db::Instance inst;
  inst.name = std::string(lex.next());
  const std::string masterName(lex.next());
  inst.master = resolveMaster(masterName);
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
db::IoPin parsePinEntity(Lexer& lex, const db::Tech& tech) {
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

/// One NETS entity (leading '-' consumed). `findInst` maps a component
/// name to its instance index (-1 for unknown -> DEF004); instance pin and
/// IO pin names resolve against `design`, which must already hold the
/// COMPONENTS and PINS sections (in-file-order parses guarantee this).
template <typename FindInst>
db::Net parseNetEntity(Lexer& lex, const db::Design& design,
                       FindInst&& findInst) {
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
        term.instIdx = findInst(a);
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
bool parseSimpleDefStatement(Lexer& lex, db::Design& design, int& dbu) {
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
    parseRowEntity(lex, design);
  } else if (tok == "TRACKS") {
    parseTracksEntity(lex, design);
  } else if (tok == "END") {
    lex.next();
    if (!lex.done()) lex.next();
  } else {
    lex.skipStatement();
  }
  return true;
}

using db::Design;

// The single-pass reference parser. The grammar proper lives in
// def_entities.hpp (shared with the chunked streaming parser); this class
// contributes the legacy control flow: statement dispatch, per-entity and
// top-level error recovery, and the maxErrors bail-out.
class DefParser {
 public:
  DefParser(std::string_view text, Design& design, const ParseOptions& opts)
      : lex_(text, opts.file), opts_(opts), design_(design) {}

  ParseResult run() {
    try {
      while (!lex_.done()) {
        const std::size_t before = lex_.pos();
        try {
          step();
        } catch (const ParseError& e) {
          if (!opts_.recover) throw;
          record(e.diag);
          resync(before, {"DESIGN", "UNITS", "DIEAREA", "ROW", "TRACKS",
                          "COMPONENTS", "PINS", "NETS", "END"});
        }
      }
    } catch (const Bail&) {
      // maxErrors reached; res_ already carries the GEN001 diagnostic.
    }
    design_.buildInstanceIndex();
    return std::move(res_);
  }

 private:
  /// Thrown (recovery mode only) once maxErrors is reached.
  struct Bail {};

  void record(const util::Diag& d) {
    res_.diags.push_back(d);
    if (res_.errorCount() >= opts_.maxErrors) {
      res_.diags.push_back(tooManyErrors(opts_.file));
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
    if (parseSimpleDefStatement(lex_, design_, dbu_)) return;
    const std::string_view tok = lex_.peek();
    if (tok == "COMPONENTS") {
      parseComponents();
    } else if (tok == "PINS") {
      parsePins();
    } else {
      parseNets();
    }
  }

  /// Runs `body` for each `- ...` entity, recovering per entity: a bad
  /// component/pin/net is dropped and reported, the rest of the section
  /// still parses.
  template <typename Body>
  void forEachEntity(Body&& body) {
    while (lex_.accept("-")) {
      const std::size_t before = lex_.pos();
      try {
        body();
      } catch (const ParseError& e) {
        if (!opts_.recover) throw;
        record(e.diag);
        resync(before, {"-", "END"});
      }
    }
  }

  void parseComponents() {
    lex_.expect("COMPONENTS");
    lex_.nextInt();
    lex_.expect(";");
    forEachEntity([&] {
      design_.instances.push_back(parseComponentEntity(
          lex_, [&](const std::string& name) {
            return design_.lib->findMaster(name);
          }));
    });
    lex_.expect("END");
    lex_.expect("COMPONENTS");
  }

  void parsePins() {
    lex_.expect("PINS");
    lex_.nextInt();
    lex_.expect(";");
    forEachEntity(
        [&] { design_.ioPins.push_back(parsePinEntity(lex_, *design_.tech)); });
    lex_.expect("END");
    lex_.expect("PINS");
    design_.buildInstanceIndex();
  }

  void parseNets() {
    lex_.expect("NETS");
    lex_.nextInt();
    lex_.expect(";");
    design_.buildInstanceIndex();
    forEachEntity([&] {
      design_.nets.push_back(parseNetEntity(
          lex_, design_,
          [&](const std::string& name) { return design_.findInstance(name); }));
    });
    lex_.expect("END");
    lex_.expect("NETS");
  }

  Lexer lex_;
  ParseOptions opts_;
  ParseResult res_;
  Design& design_;
  int dbu_ = 2000;
};

}  // namespace

void parseDef(std::string_view text, db::Design& design) {
  DefParser(text, design, ParseOptions{}).run();
}

ParseResult parseDef(std::string_view text, db::Design& design,
                     const ParseOptions& opts) {
  return DefParser(text, design, opts).run();
}

TokenStream tokenize(std::string_view text, std::string_view file) {
  TokenStream out;
  Lexer lex(text, file);
  while (!lex.done()) {
    Token t;
    t.line = lex.line();
    t.col = lex.col();
    t.text = std::string(lex.next());
    out.tokens.push_back(std::move(t));
  }
  try {
    lex.next();
  } catch (const ParseError& e) {
    out.endOfInput = e.diag;
  }
  return out;
}

}  // namespace pao::reference
