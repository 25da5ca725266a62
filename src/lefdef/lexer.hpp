// Shared tokenizer for the LEF/DEF parsers. LEF/DEF are whitespace-separated
// token streams where ';', '(' and ')' are standalone tokens, '#' starts a
// comment, and double-quoted strings are single tokens.
//
// The lexer is lazy: it scans one token ahead over a view of the source
// (mmap-backed for file input), so no token vector and no per-token string
// is ever built. Every token carries its byte offset; a LineIndex over the
// whole text turns offsets into 1-based line/column and source excerpts,
// so parse errors carry a full util::Diag (file:line:col, stable error
// code, excerpt). Parsers have two modes:
//   - strict (default): the first error throws ParseError, whose .diag
//     holds the located diagnostic (what() is the formatted form);
//   - recovery (ParseOptions::recover): errors are accumulated into a
//     ParseResult and the parser resyncs via syncTo() and keeps going.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "geom/geom.hpp"
#include "util/diag.hpp"

namespace pao::lefdef {

struct ParseError : std::runtime_error {
  /// Located diagnostic; what() returns diag.format().
  explicit ParseError(util::Diag d)
      : std::runtime_error(d.format()), diag(std::move(d)) {
  }
  /// Legacy message-only form (no location, generic code GEN000).
  explicit ParseError(const std::string& msg) : std::runtime_error(msg) {
    diag.code = "GEN000";
    diag.message = msg;
  }

  util::Diag diag;
};

/// How to parse: strict (throw on first error) or recovering (accumulate
/// diagnostics into a ParseResult, resync, continue).
struct ParseOptions {
  std::string file = "<input>";  ///< name shown in diagnostics
  bool recover = false;
  std::size_t maxErrors = 64;  ///< recovery gives up (GEN001) past this
};

struct ParseResult {
  std::vector<util::Diag> diags;

  std::size_t errorCount() const;
  bool ok() const { return errorCount() == 0; }
};

/// The GEN001 "too many errors; giving up" diagnostic that recovery-mode
/// parsers append when ParseOptions::maxErrors is reached.
util::Diag tooManyErrors(const std::string& file);

/// Rounds `v` to integer, clamping magnitudes to ±2^50 and NaN to 0. All
/// integers the parsers derive from source numbers go through this so that
/// downstream geometry arithmetic cannot overflow int64 on hostile input;
/// legitimate LEF/DEF values are orders of magnitude below the clamp.
long long roundClamped(double v);

/// Newline index over a source text: maps byte offsets to 1-based
/// line/column and extracts excerpt lines. One per file, shared by every
/// lexer over that text; the newline scan runs on the first lookup (from
/// any thread), so a parse that reports nothing never pays for it.
class LineIndex {
 public:
  explicit LineIndex(std::string_view text) : text_(text) {}

  std::size_t lineOf(std::size_t offset) const;
  std::size_t colOf(std::size_t offset) const;
  /// The full source line `line` lives on (1-based; "" when unknown).
  std::string lineText(std::size_t line) const;

 private:
  /// Start offset of every line, scanned once.
  const std::vector<std::size_t>& lineStarts() const;

  std::string_view text_;
  mutable std::once_flag scanned_;
  mutable std::vector<std::size_t> lineStart_;
};

class Lexer {
 public:
  /// Tokenizes text[begin, end): the whole file for a serial parse, one
  /// entity-aligned chunk for a parallel DEF section worker. `lines` must
  /// index the same text and outlive the lexer; locations always resolve
  /// against the whole text, so a chunk reports what a whole-file pass
  /// would.
  Lexer(std::string_view text, std::size_t begin, std::size_t end,
        const LineIndex& lines, std::string_view file);
  /// Whole-text form.
  Lexer(std::string_view text, const LineIndex& lines,
        std::string_view file = "<input>")
      : Lexer(text, 0, text.size(), lines, file) {}

  bool done() const { return !haveTok_; }
  /// Current token without consuming ("" at end of input).
  std::string_view peek() const {
    return haveTok_ ? tok_ : std::string_view();
  }
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
  /// nextDouble() scaled by dbuPerMicron and rounded — LEF distances.
  geom::Coord nextDbu(int dbuPerMicron);

  /// Line/column of the current token (the last consumed one at end of
  /// input; 0 when there is neither).
  std::size_t line() const;
  std::size_t col() const;
  /// Count of tokens consumed — the recovery progress guard.
  std::size_t pos() const { return consumed_; }
  /// Byte offset where the current token starts, or the range end at end
  /// of input.
  std::size_t byteOffset() const { return haveTok_ ? tokOff_ : end_; }
  /// Byte offset where the most recently consumed token starts (0 before
  /// any). The DEF parser checks a chunk's cut with it.
  std::size_t lastOffset() const { return lastOff_; }
  /// Repositions the scan at byte `offset`. pos() is kept (it only guards
  /// recovery progress). The DEF driver uses it to run the serial section
  /// loop from the point where a chunk's result stops being usable.
  void seekTo(std::size_t offset);

  /// Error-recovery resync: consumes tokens until a ';' has been consumed
  /// or the next token is one of `stops` (or input ends). Unlike
  /// skipStatement() this refuses to eat a following statement whose
  /// keyword is a known resync point.
  void syncTo(std::initializer_list<std::string_view> stops);

  /// Located diagnostic at the current token (diagHere; the last consumed
  /// token at end of input) or at the most recently consumed token
  /// (diagPrev — for semantic errors discovered after consuming, e.g.
  /// "unknown master 'X'"; the current token before anything is consumed).
  util::Diag diagHere(std::string_view code, std::string message) const;
  util::Diag diagPrev(std::string_view code, std::string message) const;

 private:
  /// Scans the token at or after cur_ into tok_ (haveTok_ false at end).
  void scan();
  /// Consumes the current token and scans the next one.
  void advance();
  util::Diag diagAt(std::size_t off, bool located, std::string_view code,
                    std::string message) const;

  std::string_view text_;  ///< full source; tokens are views into it
  std::size_t cur_;        ///< scan position, just past tok_
  std::size_t end_;        ///< range end (treated as end of input)
  const LineIndex* lines_;
  std::string file_;
  std::string_view tok_;  ///< current token
  std::size_t tokOff_ = 0;
  bool haveTok_ = false;
  std::size_t consumed_ = 0;
  std::size_t lastOff_ = 0;  ///< offset of most recently consumed token
  bool haveLast_ = false;
};

}  // namespace pao::lefdef
