#include "lefdef/lexer.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace pao::lefdef {

util::Diag tooManyErrors(const std::string& file) {
  util::Diag d;
  d.code = "GEN001";
  d.loc.file = file;
  d.message = "too many errors; giving up";
  return d;
}

std::size_t ParseResult::errorCount() const {
  std::size_t n = 0;
  for (const util::Diag& d : diags) {
    if (d.severity == util::Severity::kError) ++n;
  }
  return n;
}

// 2^50 DBU is ~5e8 microns at a 2000 DBU grid, far beyond any real die, so
// legitimate files are unaffected; llround on an unclamped out-of-range
// double returns an unspecified value (often LLONG_MIN), which poisons
// later sums with UB.
long long roundClamped(double v) {
  constexpr long long kMaxMagnitude = 1LL << 50;
  if (std::isnan(v)) return 0;
  const double lim = static_cast<double>(kMaxMagnitude);
  if (v >= lim) return kMaxMagnitude;
  if (v <= -lim) return -kMaxMagnitude;
  return std::llround(v);
}

const std::vector<std::size_t>& LineIndex::lineStarts() const {
  std::call_once(scanned_, [this] {
    lineStart_.push_back(0);
    for (std::size_t i = text_.find('\n'); i != std::string_view::npos;
         i = text_.find('\n', i + 1)) {
      lineStart_.push_back(i + 1);
    }
  });
  return lineStart_;
}

std::size_t LineIndex::lineOf(std::size_t offset) const {
  const std::vector<std::size_t>& starts = lineStarts();
  const auto it = std::upper_bound(starts.begin(), starts.end(), offset);
  return static_cast<std::size_t>(it - starts.begin());
}

std::size_t LineIndex::colOf(std::size_t offset) const {
  return offset - lineStarts()[lineOf(offset) - 1] + 1;
}

std::string LineIndex::lineText(std::size_t line) const {
  const std::vector<std::size_t>& starts = lineStarts();
  if (line == 0 || line > starts.size()) return std::string();
  const std::size_t begin = starts[line - 1];
  std::size_t end = text_.find('\n', begin);
  if (end == std::string_view::npos) end = text_.size();
  return std::string(text_.substr(begin, end - begin));
}

Lexer::Lexer(std::string_view text, std::size_t begin, std::size_t end,
             const LineIndex& lines, std::string_view file)
    : text_(text),
      cur_(begin),
      end_(std::min(end, text.size())),
      lines_(&lines),
      file_(file) {
  scan();
}

void Lexer::scan() {
  while (cur_ < end_) {
    const char c = text_[cur_];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++cur_;
    } else if (c == '#') {  // comment to end of line
      while (cur_ < end_ && text_[cur_] != '\n') ++cur_;
    } else {
      break;
    }
  }
  haveTok_ = cur_ < end_;
  if (!haveTok_) return;
  tokOff_ = cur_;
  const char c = text_[cur_];
  if (c == ';' || c == '(' || c == ')') {
    tok_ = text_.substr(cur_, 1);
    ++cur_;
    return;
  }
  if (c == '"') {
    std::size_t j = cur_ + 1;
    while (j < end_ && text_[j] != '"') ++j;
    tok_ = text_.substr(cur_ + 1, j - cur_ - 1);
    cur_ = j < end_ ? j + 1 : j;
    return;
  }
  std::size_t j = cur_;
  while (j < end_ && !std::isspace(static_cast<unsigned char>(text_[j])) &&
         text_[j] != ';' && text_[j] != '(' && text_[j] != ')' &&
         text_[j] != '#') {
    ++j;
  }
  tok_ = text_.substr(cur_, j - cur_);
  cur_ = j;
}

void Lexer::advance() {
  lastOff_ = tokOff_;
  haveLast_ = true;
  ++consumed_;
  scan();
}

std::string_view Lexer::next() {
  if (!haveTok_) {
    throw ParseError(diagHere("LEX001", "unexpected end of input"));
  }
  const std::string_view tok = tok_;
  advance();
  return tok;
}

bool Lexer::accept(std::string_view tok) {
  if (!haveTok_ || tok_ != tok) return false;
  advance();
  return true;
}

void Lexer::expect(std::string_view tok) {
  if (!haveTok_ || tok_ != tok) {
    const std::string got =
        haveTok_ ? "'" + std::string(tok_) + "'" : "end of input";
    throw ParseError(diagHere(
        "LEX002", "expected '" + std::string(tok) + "', got " + got));
  }
  advance();
}

void Lexer::skipStatement() {
  // next() raises LEX001 if input ends before the ';': a silent return at
  // end of input would leave callers' `while (!accept("END"))` loops
  // spinning forever on truncated files.
  while (next() != ";") {
  }
}

void Lexer::syncTo(std::initializer_list<std::string_view> stops) {
  while (haveTok_) {
    for (const std::string_view stop : stops) {
      if (tok_ == stop) return;
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

geom::Coord Lexer::nextDbu(int dbuPerMicron) {
  return static_cast<geom::Coord>(roundClamped(nextDouble() * dbuPerMicron));
}

std::size_t Lexer::line() const {
  if (haveTok_) return lines_->lineOf(tokOff_);
  return haveLast_ ? lines_->lineOf(lastOff_) : 0;
}

std::size_t Lexer::col() const {
  if (haveTok_) return lines_->colOf(tokOff_);
  return haveLast_ ? lines_->colOf(lastOff_) : 0;
}

void Lexer::seekTo(std::size_t offset) {
  cur_ = offset;
  scan();
}

util::Diag Lexer::diagHere(std::string_view code, std::string message) const {
  // At end of input point at the last consumed token — the caller is
  // reporting "input ended while I expected more", and that is where.
  if (haveTok_) return diagAt(tokOff_, true, code, std::move(message));
  return diagAt(lastOff_, haveLast_, code, std::move(message));
}

util::Diag Lexer::diagPrev(std::string_view code, std::string message) const {
  if (haveLast_) return diagAt(lastOff_, true, code, std::move(message));
  return diagAt(tokOff_, haveTok_, code, std::move(message));
}

util::Diag Lexer::diagAt(std::size_t off, bool located, std::string_view code,
                         std::string message) const {
  util::Diag d;
  d.code = std::string(code);
  d.message = std::move(message);
  d.loc.file = file_;
  if (located) {
    d.loc.line = lines_->lineOf(off);
    d.loc.col = lines_->colOf(off);
    d.excerpt = lines_->lineText(d.loc.line);
  }
  return d;
}

}  // namespace pao::lefdef
