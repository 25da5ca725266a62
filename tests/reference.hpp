// Test-only reference implementations: earlier versions of hot kernels and
// of the DEF parser, kept as they were before a rewrite. Differential tests
// hold each rewrite to its reference's output exactly, order included.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "db/design.hpp"
#include "drc/engine.hpp"
#include "lefdef/lexer.hpp"
#include "pao/evaluate.hpp"
#include "util/diag.hpp"

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

/// The single-pass DEF parser over the eager tokenizer, which built a
/// std::string per token before parsing. Strict form: throws ParseError at
/// the first error and leaves whatever it had parsed in `design`.
void parseDef(std::string_view text, db::Design& design);
/// Recovery-aware form; with opts.recover it never throws and stops with
/// GEN001 once opts.maxErrors diagnostics have been recorded.
lefdef::ParseResult parseDef(std::string_view text, db::Design& design,
                             const lefdef::ParseOptions& opts);

struct Token {
  std::string text;
  std::size_t line = 0;
  std::size_t col = 0;
};

/// Every token of `text` as the eager tokenizer saw it, plus the LEX001
/// diagnostic it raised on a read past the last token.
struct TokenStream {
  std::vector<Token> tokens;
  util::Diag endOfInput;
};
TokenStream tokenize(std::string_view text,
                     std::string_view file = "<input>");

}  // namespace pao::reference
