// pao_lint rule engine: project-invariant checks over the token stream
// produced by lint/lexer.hpp. Four rules, each named and suppressible with
// `// pao-lint: allow(<rule>): <justification>` on the offending line or the
// line above it:
//
//   pointer-stability   A reference/pointer obtained from a reallocating
//                       container accessor (a `std::vector` growth call such
//                       as `v.emplace_back()`, or an annotated project
//                       accessor) is used after a later call that may
//                       reallocate the same container. This is the bug class
//                       PR 1's TSan leg caught at runtime in tech_gen.cpp
//                       and test_util.hpp.
//   unordered-iteration A range-for over a `std::unordered_map`/`_set`
//                       whose body writes output (stream insertion,
//                       push_back/emplace_back) with no subsequent canonical
//                       sort in the enclosing block — hash iteration order
//                       is not deterministic, which breaks the executor's
//                       determinism contract (cf. DrcEngine::checkAll's
//                       violationLess sort).
//   executor-hygiene    Raw `std::thread`/`std::jthread`/`std::async` use
//                       outside src/util/jobs.*, or a mutable-capture
//                       lambda passed to `parallelFor` (slot-writes, not
//                       captured mutation, keep parallel results
//                       deterministic). In service code (Options::
//                       socketIoBanSubstrings, default src/serve/) it also
//                       flags blocking socket I/O calls inside a
//                       `parallelFor` argument list: the epoll event loop
//                       owns every socket, and a worker blocking on
//                       read/send would stall the whole dispatch batch.
//                       Under src/ (outside src/obs/ and src/util/jobs.*)
//                       it flags writes to namespace-scope or static
//                       std::atomics: fetch_add/fetch_sub/store/exchange,
//                       ++/-- and compound assignment; and, inside a
//                       parallelFor/addJob/addJobRange argument list, any
//                       registry macro (PAO_COUNTER_*, PAO_HISTOGRAM_*,
//                       PAO_GAUGE_*) or atomic read-modify-write member
//                       call (.fetch_*, .compare_exchange_*, .exchange):
//                       a task returns its tally into a slot, merged once
//                       the run has joined.
//   obs-naming          A string literal passed as the registry name to one
//                       of the observability macros (PAO_COUNTER_ADD,
//                       PAO_COUNTER_INC, PAO_GAUGE_SET,
//                       PAO_HISTOGRAM_OBSERVE) that does not follow the
//                       `pao.<phase>.<metric>` convention: dotted lowercase
//                       [a-z0-9_] with at least three segments, first
//                       segment `pao` (see DESIGN.md "Observability").
//   diag-hygiene        A bare `throw std::runtime_error(...)` in library
//                       code (anything outside Options::
//                       diagHygieneExemptSubstrings — by default src/util/,
//                       tools/ and tests/). Library errors must carry a
//                       source location and stable code: throw
//                       lefdef::ParseError with a util::Diag, or a domain
//                       exception type (see DESIGN.md "Robustness & failure
//                       semantics").
//
// Three further rule families are *whole-program*: they only run through
// lintTree(), which aggregates per-TU facts (lint/facts.hpp) across every
// file handed to the driver:
//
//   layering            The module DAG `util -> geom -> db -> lefdef ->
//                       {drc, benchgen} -> {pao, viz} -> router -> serve`
//                       (with `obs` includable from anywhere) enforced on
//                       project-relative quoted includes. An include of a
//                       higher-ranked or same-rank sibling module is a
//                       finding.
//   lock-discipline     Blocking calls (file/socket I/O, parallelFor,
//                       .join(), sleep_for) while a lock_guard/scoped_lock/
//                       unique_lock is live in the enclosing scope;
//                       double-lock of one mutex; and cross-file
//                       inconsistent acquisition order between mutex pairs.
//   catalog-drift       Stable identifiers (SRVnnn/DEFnnn/LEXnnn/GENnnn
//                       error codes, PAO_FAULTS point names, pao.* metric
//                       names) emitted by code but absent from the DESIGN.md
//                       catalogs, and catalog entries no longer present in
//                       code — both directions, making DESIGN.md a checked
//                       artifact. Needs Options::designDocText.
//
// A further internal rule id, `suppression`, reports malformed suppressions
// (missing justification, unknown rule id); it cannot itself be suppressed.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pao::lint {

inline constexpr std::string_view kRulePointerStability = "pointer-stability";
inline constexpr std::string_view kRuleUnorderedIteration =
    "unordered-iteration";
inline constexpr std::string_view kRuleExecutorHygiene = "executor-hygiene";
inline constexpr std::string_view kRuleObsNaming = "obs-naming";
inline constexpr std::string_view kRuleDiagHygiene = "diag-hygiene";
inline constexpr std::string_view kRuleLayering = "layering";
inline constexpr std::string_view kRuleLockDiscipline = "lock-discipline";
inline constexpr std::string_view kRuleCatalogDrift = "catalog-drift";
inline constexpr std::string_view kRuleSuppression = "suppression";

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string hint;
  bool suppressed = false;  ///< a justified allow() covers this finding
  bool baselined = false;   ///< present in the --baseline ratchet file
};

/// A project accessor known to return a reference into reallocating vector
/// storage. Accessors sharing a `group` (called on the same receiver)
/// invalidate each other's returned references — e.g. an insertLayer would
/// share a group with addLayer.
struct AccessorAnnotation {
  std::string method;
  std::string group;
};

struct Options {
  /// Annotated unstable accessors, seeded from defaultAccessors(). The
  /// generic `std::vector` growth-call detection is always on regardless.
  std::vector<AccessorAnnotation> accessors;
  /// Path suffixes exempt from the raw-thread half of executor-hygiene
  /// (the job-graph executor itself must use std::thread to build the
  /// worker pool).
  std::vector<std::string> rawThreadExemptSuffixes = {
      "src/util/jobs.cpp", "src/util/jobs.hpp"};
  /// Path substrings exempt from diag-hygiene: the generic error machinery
  /// itself (src/util/), the CLI front ends (tools/, whose main() catches
  /// and maps exceptions to exit codes) and the tests.
  std::vector<std::string> diagHygieneExemptSubstrings = {"src/util/",
                                                          "tools/", "tests/"};
  /// Path substrings where executor-hygiene additionally forbids blocking
  /// socket I/O from parallelFor worker context. Only the single-threaded
  /// event loop in src/serve/server.cpp may touch sockets; dispatch workers
  /// compute responses and hand strings back.
  std::vector<std::string> socketIoBanSubstrings = {"src/serve/"};
  /// Path substrings whose *emission sites* are exempt from the
  /// undocumented-in-code half of catalog-drift: tests register scratch
  /// metrics and synthetic fault points on purpose. Their identifier uses
  /// still count as "alive in code" for the dead-in-docs direction.
  std::vector<std::string> catalogExemptSubstrings = {"tests/"};
  /// The design document the catalog-drift rule audits against (normally
  /// DESIGN.md, loaded by the driver's --design-doc flag). When the text is
  /// empty the rule is skipped entirely.
  std::string designDocPath;
  std::string designDocText;

  Options();
};

/// One in-memory translation unit handed to lintTree().
struct FileInput {
  std::string path;
  std::string src;
};

/// The built-in annotation list. Currently the interner-style viewOf /
/// intern pair (group "interner"): viewOf returns a reference into a vector
/// that intern can grow. (Tech::addLayer / Tech::addViaDef were the original
/// offenders and were moved to stable deque-backed storage.) Add entries
/// here when introducing a new accessor that hands out references into a
/// std::vector.
std::vector<AccessorAnnotation> defaultAccessors();

/// True when `rule` is a rule id findings can carry (and allow() can name).
bool isKnownRule(std::string_view rule);

/// Lints one in-memory translation unit with the *per-file* rules only
/// (pointer-stability, unordered-iteration, executor-hygiene, obs-naming,
/// diag-hygiene). `path` is used for reporting and for the executor-hygiene
/// path exemptions. Suppressed findings are returned with
/// `suppressed == true` so callers can count or hide them.
std::vector<Finding> lintSource(std::string_view path, std::string_view src,
                                const Options& options);

/// Reads and lints `path` (per-file rules only). On I/O failure returns
/// empty and sets *error.
std::vector<Finding> lintFile(const std::string& path, const Options& options,
                              std::string* error);

/// The whole-program entry point: runs the per-file rules on every input,
/// extracts per-TU facts, then runs the cross-TU rule families (layering,
/// lock-discipline, catalog-drift) over the aggregate. Suppressions apply
/// to every finding anchored in a scanned file; findings anchored in the
/// design document (dead-in-docs catalog drift) can only be baselined.
/// Results are sorted by (file, line, rule).
std::vector<Finding> lintTree(const std::vector<FileInput>& files,
                              const Options& options);

}  // namespace pao::lint
