#include "lint/rules.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "lint/analysis.hpp"
#include "lint/facts.hpp"
#include "lint/lexer.hpp"
#include "lint/token_match.hpp"

namespace pao::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule: unordered-iteration
// ---------------------------------------------------------------------------

/// Names of variables declared in this file with an unordered container
/// type. Purely lexical: `unordered_map<...>` (template args balanced) then
/// past any `&`/`*`/cv tokens, an identifier.
std::set<std::string_view> collectUnorderedNames(
    const std::vector<Token>& toks) {
  std::set<std::string_view> names;
  for (std::size_t k = 0; k < toks.size(); ++k) {
    if (!isIdent(toks[k], "unordered_map") &&
        !isIdent(toks[k], "unordered_set")) {
      continue;
    }
    std::size_t j = k + 1;
    if (j >= toks.size() || !isPunct(toks[j], "<")) continue;
    int angle = 0;
    for (; j < toks.size(); ++j) {
      if (isPunct(toks[j], "<")) ++angle;
      if (isPunct(toks[j], ">") && --angle == 0) break;
      if (isPunct(toks[j], ";")) break;  // gave up: not a simple type
    }
    if (j >= toks.size() || angle != 0) continue;
    ++j;
    while (j < toks.size() &&
           (isPunct(toks[j], "&") || isPunct(toks[j], "*") ||
            isIdent(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
      names.insert(toks[j].text);
    }
  }
  return names;
}

void ruleUnorderedIteration(std::string_view path,
                            const std::vector<Token>& toks,
                            const std::vector<int>& depths,
                            std::vector<Finding>& out) {
  const std::set<std::string_view> names = collectUnorderedNames(toks);
  for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
    if (!isIdent(toks[k], "for") || !isPunct(toks[k + 1], "(")) continue;
    const std::size_t cp = matchForward(toks, k + 1, "(", ")");
    if (cp >= toks.size()) continue;
    // The range-for colon sits at paren depth 1 (`::` is a distinct token).
    std::size_t colon = toks.size();
    int pd = 0;
    for (std::size_t j = k + 1; j < cp; ++j) {
      if (isPunct(toks[j], "(")) ++pd;
      if (isPunct(toks[j], ")")) --pd;
      if (pd == 1 && isPunct(toks[j], ":")) {
        colon = j;
        break;
      }
    }
    if (colon >= toks.size()) continue;
    std::string_view container;
    for (std::size_t j = colon + 1; j < cp; ++j) {
      if (toks[j].kind != TokKind::kIdent) continue;
      if (names.count(toks[j].text) != 0 ||
          toks[j].text == "unordered_map" || toks[j].text == "unordered_set") {
        container = toks[j].text;
        break;
      }
    }
    if (container.empty()) continue;
    // Loop body: a brace block or a single statement up to `;`.
    std::size_t bodyBegin = cp + 1;
    std::size_t bodyEnd;
    if (bodyBegin < toks.size() && isPunct(toks[bodyBegin], "{")) {
      bodyEnd = matchForward(toks, bodyBegin, "{", "}");
    } else {
      bodyEnd = bodyBegin;
      while (bodyEnd < toks.size() && !isPunct(toks[bodyEnd], ";")) ++bodyEnd;
    }
    bool writes = false;
    for (std::size_t j = bodyBegin; j < bodyEnd && j < toks.size(); ++j) {
      if (isPunct(toks[j], "<<") || isIdent(toks[j], "push_back") ||
          isIdent(toks[j], "emplace_back")) {
        writes = true;
        break;
      }
    }
    if (!writes) continue;
    // Look for a canonical sort in the remainder of the enclosing block.
    bool sorted = false;
    const int forDepth = depths[k];
    for (std::size_t j = bodyEnd; j < toks.size() && depths[j] >= forDepth;
         ++j) {
      if (toks[j].kind == TokKind::kIdent &&
          toks[j].text.find("sort") != std::string_view::npos) {
        sorted = true;
        break;
      }
    }
    if (sorted) continue;
    Finding f;
    f.file = std::string(path);
    f.line = toks[k].line;
    f.rule = std::string(kRuleUnorderedIteration);
    f.message = "iteration over unordered container '" +
                std::string(container) +
                "' writes output in hash order with no later sort";
    f.hint =
        "sort the collected results canonically after the loop (cf. "
        "DrcEngine::checkAll's violationLess) or iterate a sorted copy";
    out.push_back(std::move(f));
  }
}

// ---------------------------------------------------------------------------
// Rule: pointer-stability
// ---------------------------------------------------------------------------

/// std::vector calls that can reallocate (invalidating prior references into
/// the same container). pop_back only invalidates the popped element and is
/// left out to avoid noise.
bool isGrowthCall(std::string_view m) {
  return m == "push_back" || m == "emplace_back" || m == "resize" ||
         m == "reserve" || m == "insert" || m == "emplace" || m == "clear" ||
         m == "assign";
}
/// vector members whose result commonly gets bound to a long-lived
/// reference.
bool isRefYieldingVectorCall(std::string_view m) {
  return m == "emplace_back" || m == "back" || m == "front";
}

struct Binding {
  std::string_view name;
  std::string recv;        ///< normalized receiver chain, e.g. "tech"
  std::string group;       ///< annotation group or "vec:" + recv
  std::string declMethod;  ///< accessor that produced the reference
  std::size_t nameTok = 0;
  int declDepth = 0;
  int invalidLine = 0;     ///< 0 while still valid
  std::string invalidCall;
  bool reported = false;
};

void rulePointerStability(std::string_view path,
                          const std::vector<Token>& toks,
                          const std::vector<int>& depths,
                          const Options& options, std::vector<Finding>& out) {
  std::vector<Binding> bindings;
  const auto annotationGroup =
      [&options](std::string_view m) -> const std::string* {
    for (const AccessorAnnotation& a : options.accessors) {
      if (a.method == m) return &a.group;
    }
    return nullptr;
  };

  for (std::size_t k = 0; k < toks.size(); ++k) {
    // Scope exit drops bindings declared deeper.
    if (isPunct(toks[k], "}")) {
      const int d = depths[k];
      std::erase_if(bindings,
                    [d](const Binding& b) { return b.declDepth > d; });
    }

    // Method call on a receiver: recv.m( / recv->m(
    const bool isCall =
        k >= 2 && k + 1 < toks.size() && toks[k].kind == TokKind::kIdent &&
        isPunct(toks[k + 1], "(") &&
        (isPunct(toks[k - 1], ".") || isPunct(toks[k - 1], "->"));
    if (isCall) {
      const std::string_view m = toks[k].text;
      const std::string* annGroup = annotationGroup(m);
      if (annGroup != nullptr || isGrowthCall(m)) {
        const Receiver recv = receiverChain(toks, k - 2);
        const std::string group =
            annGroup != nullptr ? *annGroup : "vec:" + recv.chain;
        // This call may reallocate: invalidate live same-group bindings.
        for (Binding& b : bindings) {
          if (b.invalidLine == 0 && b.group == group && b.recv == recv.chain) {
            b.invalidLine = toks[k].line;
            b.invalidCall = recv.chain + "." + std::string(m) + "()";
          }
        }
        // ...and if its result is bound by reference/pointer, start
        // tracking the new binding:  T& name = recv.m(...)   or
        // T* name = &recv.m(...)
        if (annGroup != nullptr || isRefYieldingVectorCall(m)) {
          const std::size_t s = recv.begin;
          std::size_t nameTok = toks.size();
          if (s >= 3 && isPunct(toks[s - 1], "=") &&
              toks[s - 2].kind == TokKind::kIdent &&
              isPunct(toks[s - 3], "&")) {
            nameTok = s - 2;
          } else if (s >= 4 && isPunct(toks[s - 1], "&") &&
                     isPunct(toks[s - 2], "=") &&
                     toks[s - 3].kind == TokKind::kIdent &&
                     isPunct(toks[s - 4], "*")) {
            nameTok = s - 3;
          }
          if (nameTok < toks.size()) {
            // Rebinding a tracked name replaces the old binding.
            std::erase_if(bindings, [&](const Binding& b) {
              return b.name == toks[nameTok].text;
            });
            Binding b;
            b.name = toks[nameTok].text;
            b.recv = recv.chain;
            b.group = group;
            b.declMethod = std::string(m);
            b.nameTok = nameTok;
            b.declDepth = depths[nameTok];
            bindings.push_back(std::move(b));
          }
        }
        continue;
      }
    }

    // Use of a tracked name after invalidation.
    if (toks[k].kind != TokKind::kIdent) continue;
    // Member accesses like foo.name are a different entity.
    if (k >= 1 && (isPunct(toks[k - 1], ".") || isPunct(toks[k - 1], "->") ||
                   isPunct(toks[k - 1], "::"))) {
      continue;
    }
    for (Binding& b : bindings) {
      if (b.name != toks[k].text || k == b.nameTok) continue;
      // `Type& name = other;` rebinding to something untracked: drop it.
      if (k >= 1 && k + 1 < toks.size() && isPunct(toks[k - 1], "&") &&
          isPunct(toks[k + 1], "=")) {
        b = bindings.back();
        bindings.pop_back();
        break;
      }
      if (b.invalidLine != 0 && !b.reported) {
        b.reported = true;
        Finding f;
        f.file = std::string(path);
        f.line = toks[k].line;
        f.rule = std::string(kRulePointerStability);
        f.message = "'" + std::string(b.name) + "' (reference from " +
                    b.recv + "." + b.declMethod + "()) used after " +
                    b.invalidCall + " on line " +
                    std::to_string(b.invalidLine) +
                    ", which may reallocate the backing storage";
        f.hint =
            "re-acquire the element after the growth call, keep an index "
            "instead, or move the container to stable (deque/node) storage";
        out.push_back(std::move(f));
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: executor-hygiene
// ---------------------------------------------------------------------------

bool pathEndsWith(std::string_view path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.substr(path.size() - suffix.size()) == suffix;
}

/// Blocking socket primitives that must never run on a parallelFor worker:
/// the serve event loop is the sole socket owner, and a worker blocked in
/// read/send holds its dispatch slot hostage for the whole batch.
bool isSocketIoCall(std::string_view name) {
  return name == "read" || name == "write" || name == "send" ||
         name == "recv" || name == "sendto" || name == "recvfrom" ||
         name == "sendmsg" || name == "recvmsg" || name == "accept" ||
         name == "accept4" || name == "connect" || name == "poll" ||
         name == "select" || name == "epoll_wait";
}

/// Library code (src/, outside src/obs/ and src/util/jobs.*): where tallies
/// must live with their owner rather than in process-wide shared state.
bool isLibraryCode(std::string_view path) {
  const auto in = [&](std::string_view sub) {
    return path.find(sub) != std::string_view::npos;
  };
  return in("src/") && !in("src/obs/") && !in("src/util/jobs.");
}

/// A write to state every worker shares, at toks[j] inside a worker body:
/// a registry macro (PAO_COUNTER_*, PAO_HISTOGRAM_*, PAO_GAUGE_*) or an
/// atomic read-modify-write member call (.fetch_*, .compare_exchange_*,
/// .exchange). Returns the offending name, empty when there is none.
std::string_view sharedWriteAt(const std::vector<Token>& toks, std::size_t j) {
  if (toks[j].kind != TokKind::kIdent || j + 1 >= toks.size() ||
      !isPunct(toks[j + 1], "(")) {
    return {};
  }
  const std::string_view name = toks[j].text;
  if (name.starts_with("PAO_COUNTER_") || name.starts_with("PAO_HISTOGRAM_") ||
      name.starts_with("PAO_GAUGE_")) {
    return name;
  }
  const bool member =
      j > 0 && (isPunct(toks[j - 1], ".") || isPunct(toks[j - 1], "->"));
  if (member && (name.starts_with("fetch_") ||
                 name.starts_with("compare_exchange_") || name == "exchange")) {
    return name;
  }
  return {};
}

void ruleExecutorHygiene(std::string_view path, const std::vector<Token>& toks,
                         const Options& options, std::vector<Finding>& out) {
  bool exemptRawThread = false;
  for (const std::string& sfx : options.rawThreadExemptSuffixes) {
    if (pathEndsWith(path, sfx)) exemptRawThread = true;
  }
  bool banSocketIo = false;
  for (const std::string& sub : options.socketIoBanSubstrings) {
    if (path.find(sub) != std::string_view::npos) banSocketIo = true;
  }
  const bool banSharedWrites = isLibraryCode(path);
  // End of the last worker body scanned for shared writes: a submission
  // nested inside it was already covered.
  std::size_t sharedScanEnd = 0;
  for (std::size_t k = 0; k + 2 < toks.size(); ++k) {
    if (isIdent(toks[k], "std") && isPunct(toks[k + 1], "::") &&
        (isIdent(toks[k + 2], "thread") || isIdent(toks[k + 2], "jthread") ||
         isIdent(toks[k + 2], "async"))) {
      // std::thread::hardware_concurrency and friends are queries, not
      // thread creation.
      if (k + 3 < toks.size() && isPunct(toks[k + 3], "::")) continue;
      if (exemptRawThread) continue;
      Finding f;
      f.file = std::string(path);
      f.line = toks[k].line;
      f.rule = std::string(kRuleExecutorHygiene);
      f.message = "raw std::" + std::string(toks[k + 2].text) +
                  " outside src/util/jobs.*";
      f.hint =
          "route parallelism through util::parallelFor so the determinism "
          "and nested-call contracts hold";
      out.push_back(std::move(f));
    }
    // Worker-body scans cover both submission APIs: parallelFor call
    // arguments and job-graph addJob/addJobRange arguments (the inline
    // lambda that becomes a node body). Declarations match too, but their
    // parameter lists carry none of the flagged tokens.
    const bool isParallelForCall = isIdent(toks[k], "parallelFor");
    const bool isJobSubmit =
        isIdent(toks[k], "addJob") || isIdent(toks[k], "addJobRange");
    if ((isParallelForCall || isJobSubmit) && k + 1 < toks.size() &&
        isPunct(toks[k + 1], "(")) {
      const std::size_t cp = matchForward(toks, k + 1, "(", ")");
      for (std::size_t j = k + 2; j < cp && j < toks.size(); ++j) {
        if (const std::string_view w = sharedWriteAt(toks, j);
            banSharedWrites && j >= sharedScanEnd && !w.empty()) {
          Finding f;
          f.file = std::string(path);
          f.line = toks[j].line;
          f.rule = std::string(kRuleExecutorHygiene);
          f.message = "shared write '" + std::string(w) +
                      (isParallelForCall ? "' inside a parallelFor worker"
                                         : "' inside a job-node body");
          f.hint =
              "return the task's tally into a pre-sized slot and merge the "
              "slots once the run has joined; publish metrics from the "
              "merge, not from each task";
          out.push_back(std::move(f));
          continue;
        }
        if (isIdent(toks[j], "mutable")) {
          Finding f;
          f.file = std::string(path);
          f.line = toks[j].line;
          f.rule = std::string(kRuleExecutorHygiene);
          f.message = isParallelForCall
                          ? "mutable-capture lambda passed to parallelFor"
                          : "mutable-capture lambda submitted to the job "
                            "graph";
          f.hint =
              "write each task's result into a pre-sized slot instead of "
              "mutating captured state; slot writes keep results "
              "schedule-independent";
          out.push_back(std::move(f));
          continue;
        }
        if (isJobSubmit && isIdent(toks[j], "parallelFor")) {
          // A parallelFor inside a node body degrades to serial under the
          // nested-run rule, silently flattening the intended parallelism.
          Finding f;
          f.file = std::string(path);
          f.line = toks[j].line;
          f.rule = std::string(kRuleExecutorHygiene);
          f.message = "raw parallelFor inside a job-node body";
          f.hint =
              "nested parallel sections degrade to serial; add the inner "
              "iterations as graph jobs and express the ordering as "
              "dependency edges instead";
          out.push_back(std::move(f));
          continue;
        }
        if (banSocketIo && toks[j].kind == TokKind::kIdent &&
            isSocketIoCall(toks[j].text) && j + 1 < toks.size() &&
            isPunct(toks[j + 1], "(")) {
          // Member/qualified calls (conn.read(...), Foo::send(...)) are a
          // different function; only free calls hit the socket API.
          if (j > 0 && (isPunct(toks[j - 1], ".") ||
                        isPunct(toks[j - 1], "->") ||
                        isPunct(toks[j - 1], "::"))) {
            continue;
          }
          Finding f;
          f.file = std::string(path);
          f.line = toks[j].line;
          f.rule = std::string(kRuleExecutorHygiene);
          f.message = "blocking socket call '" + std::string(toks[j].text) +
                      (isParallelForCall
                           ? "' inside a parallelFor worker in service code"
                           : "' inside a job-graph node in service code");
          f.hint =
              "only the epoll event loop in src/serve/server.cpp may touch "
              "sockets; workers compute response strings and the loop "
              "flushes them";
          out.push_back(std::move(f));
        }
      }
      sharedScanEnd = std::max(sharedScanEnd, cp);
    }
  }
}

/// Names of the `std::atomic` objects this file declares at namespace scope
/// or `static` (static members and function-local statics): one object
/// every thread shares. Pointers and references to atomics, atomics nested
/// in template arguments and `thread_local` ones are not shared objects.
std::set<std::string_view> collectSharedAtomics(
    const std::vector<Token>& toks) {
  std::set<std::string_view> names;
  // Per open brace: does it open a namespace (or extern "C") body?
  std::vector<bool> braces;
  int parens = 0;
  for (std::size_t k = 0; k < toks.size(); ++k) {
    if (isPunct(toks[k], "(")) ++parens;
    if (isPunct(toks[k], ")") && parens > 0) --parens;
    if (isPunct(toks[k], "{")) {
      std::size_t j = k;
      while (j > 0 && (toks[j - 1].kind == TokKind::kIdent ||
                       isPunct(toks[j - 1], "::"))) {
        --j;
        if (isIdent(toks[j], "namespace")) break;
      }
      const bool ns = (j < k && isIdent(toks[j], "namespace")) ||
                      (k >= 2 && toks[k - 1].kind == TokKind::kString &&
                       isIdent(toks[k - 2], "extern"));
      braces.push_back(ns);
    }
    if (isPunct(toks[k], "}") && !braces.empty()) braces.pop_back();

    if (k + 3 >= toks.size() || !isIdent(toks[k], "std") ||
        !isPunct(toks[k + 1], "::") || toks[k + 2].kind != TokKind::kIdent ||
        !toks[k + 2].text.starts_with("atomic")) {
      continue;
    }
    // Skip the template arguments of std::atomic<...>.
    std::size_t j = k + 3;
    if (isPunct(toks[j], "<")) {
      int angle = 0;
      for (; j < toks.size(); ++j) {
        if (isPunct(toks[j], "<")) ++angle;
        if (isPunct(toks[j], ">") && --angle == 0) break;
      }
      ++j;
    }
    if (j >= toks.size() || toks[j].kind != TokKind::kIdent) continue;
    bool isStatic = false;
    bool threadLocal = false;
    for (std::size_t b = k; b-- > 0;) {
      if (isPunct(toks[b], ";") || isPunct(toks[b], "{") ||
          isPunct(toks[b], "}") || isPunct(toks[b], ":")) {
        break;
      }
      isStatic = isStatic || isIdent(toks[b], "static");
      threadLocal = threadLocal || isIdent(toks[b], "thread_local");
    }
    const bool namespaceScope =
        parens == 0 && std::all_of(braces.begin(), braces.end(),
                                   [](bool ns) { return ns; });
    if ((isStatic || namespaceScope) && !threadLocal) {
      names.insert(toks[j].text);
    }
  }
  return names;
}

/// True when tokens[k] (a tracked atomic's name) is written: a mutating
/// member call, an increment/decrement, or a compound assignment. The
/// lexer fuses only `+= -= *= /= <<=`; `|= &= ^= %= >>=` arrive split.
bool isAtomicWrite(const std::vector<Token>& toks, std::size_t k) {
  const auto punctAt = [&](std::size_t i, std::string_view p) {
    return i < toks.size() && isPunct(toks[i], p);
  };
  if (k > 0 && (punctAt(k - 1, "++") || punctAt(k - 1, "--"))) return true;
  if (punctAt(k + 1, "++") || punctAt(k + 1, "--")) return true;
  for (const std::string_view op : {"+=", "-=", "*=", "/=", "<<="}) {
    if (punctAt(k + 1, op)) return true;
  }
  for (const std::string_view op : {"|", "&", "^", "%"}) {
    if (punctAt(k + 1, op) && punctAt(k + 2, "=")) return true;
  }
  if (punctAt(k + 1, ">") && punctAt(k + 2, ">") && punctAt(k + 3, "=")) {
    return true;
  }
  if (punctAt(k + 1, ".") && k + 3 < toks.size() && punctAt(k + 3, "(")) {
    const std::string_view m = toks[k + 2].text;
    return m == "fetch_add" || m == "fetch_sub" || m == "store" ||
           m == "exchange";
  }
  return false;
}

/// The shared-atomic half of executor-hygiene: a write to a namespace-scope
/// or static std::atomic from library code bounces one cache line between
/// every worker that reaches it. Tallies belong to their owner or to
/// thread-local storage, merged when the scope ends.
void ruleSharedAtomicWrites(std::string_view path,
                            const std::vector<Token>& toks,
                            std::vector<Finding>& out) {
  // Library code only. The obs registry and the job graph own the
  // process-wide atomics by design.
  if (!isLibraryCode(path)) return;
  const std::set<std::string_view> names = collectSharedAtomics(toks);
  if (names.empty()) return;
  for (std::size_t k = 0; k < toks.size(); ++k) {
    if (toks[k].kind != TokKind::kIdent || names.count(toks[k].text) == 0) {
      continue;
    }
    // obj.name / obj->name is some other object's member.
    if (k > 0 && (isPunct(toks[k - 1], ".") || isPunct(toks[k - 1], "->"))) {
      continue;
    }
    if (!isAtomicWrite(toks, k)) continue;
    Finding f;
    f.file = std::string(path);
    f.line = toks[k].line;
    f.rule = std::string(kRuleExecutorHygiene);
    f.message = "write to shared atomic '" + std::string(toks[k].text) +
                "' (namespace-scope or static) in library code";
    f.hint =
        "keep the tally on its owner or in thread-local storage and merge "
        "it when the scope ends; process-wide counters belong in src/obs/";
    out.push_back(std::move(f));
  }
}

// ---------------------------------------------------------------------------
// Rule: obs-naming
// ---------------------------------------------------------------------------

bool isObsMetricMacro(std::string_view m) {
  return m == "PAO_COUNTER_ADD" || m == "PAO_COUNTER_INC" ||
         m == "PAO_GAUGE_SET" || m == "PAO_HISTOGRAM_OBSERVE";
}

/// Checks string literals passed as the name argument of the observability
/// macros. Names built at runtime (non-literal first argument) are skipped:
/// the registry sorts whatever it gets, but the convention can only be
/// enforced statically on literals — which is how every call site in the
/// tree spells them. The macro *definitions* in obs/metrics.hpp live on
/// preprocessor lines, which the lexer strips, so they are never scanned.
void ruleObsNaming(std::string_view path, const std::vector<Token>& toks,
                   std::vector<Finding>& out) {
  for (std::size_t k = 0; k + 2 < toks.size(); ++k) {
    if (toks[k].kind != TokKind::kIdent || !isObsMetricMacro(toks[k].text)) {
      continue;
    }
    if (!isPunct(toks[k + 1], "(")) continue;
    const Token& arg = toks[k + 2];
    if (arg.kind != TokKind::kString) continue;
    std::string_view name = arg.text;
    if (name.size() >= 2 && name.front() == '"' && name.back() == '"') {
      name.remove_prefix(1);
      name.remove_suffix(1);
    }
    if (isValidMetricName(name)) continue;
    Finding f;
    f.file = std::string(path);
    f.line = arg.line;
    f.rule = std::string(kRuleObsNaming);
    f.message = "metric name \"" + std::string(name) + "\" passed to " +
                std::string(toks[k].text) +
                " does not follow pao.<phase>.<metric>";
    f.hint =
        "registry names are dotted lowercase [a-z0-9_] with at least three "
        "segments starting with 'pao.' (e.g. pao.step2.pair_checks); see "
        "DESIGN.md \"Observability\"";
    out.push_back(std::move(f));
  }
}

// ---------------------------------------------------------------------------
// Rule: diag-hygiene
// ---------------------------------------------------------------------------

/// Flags `throw std::runtime_error(...)` outside the exempt path set.
/// Library code must raise located, coded errors (lefdef::ParseError with a
/// util::Diag, or a domain exception type) so failures surface as
/// file:line:col diagnostics rather than bare strings.
void ruleDiagHygiene(std::string_view path, const std::vector<Token>& toks,
                     const Options& options, std::vector<Finding>& out) {
  for (const std::string& sub : options.diagHygieneExemptSubstrings) {
    if (path.find(sub) != std::string_view::npos) return;
  }
  for (std::size_t k = 0; k + 4 < toks.size(); ++k) {
    if (!isIdent(toks[k], "throw") || !isIdent(toks[k + 1], "std") ||
        !isPunct(toks[k + 2], "::") ||
        !isIdent(toks[k + 3], "runtime_error") ||
        !isPunct(toks[k + 4], "(")) {
      continue;
    }
    Finding f;
    f.file = std::string(path);
    f.line = toks[k].line;
    f.rule = std::string(kRuleDiagHygiene);
    f.message = "bare throw std::runtime_error in library code";
    f.hint =
        "throw lefdef::ParseError with a located util::Diag (stable code, "
        "file:line:col, excerpt) or a domain exception type; plain "
        "runtime_error is reserved for src/util/, tools/ and tests/";
    out.push_back(std::move(f));
  }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// Marks findings anchored in `path` covered by a justified allow() on the
/// same line or the line above. Findings in other files (lintTree merges
/// tree-wide results before suppressing) are left alone.
void markSuppressed(std::string_view path,
                    const std::vector<Suppression>& sups,
                    std::vector<Finding>& findings) {
  for (Finding& f : findings) {
    if (f.file != path) continue;
    for (const Suppression& s : sups) {
      if (s.rule == f.rule && !s.justification.empty() &&
          (s.line == f.line || s.line == f.line - 1)) {
        f.suppressed = true;
        break;
      }
    }
  }
}

/// Appends a `suppression` finding for every malformed allow() in `path`:
/// unknown rule id or missing justification.
void reportBadSuppressions(std::string_view path,
                           const std::vector<Suppression>& sups,
                           std::vector<Finding>& findings) {
  for (const Suppression& s : sups) {
    Finding f;
    f.file = std::string(path);
    f.line = s.line;
    f.rule = std::string(kRuleSuppression);
    if (!isKnownRule(s.rule)) {
      f.message = "allow() names unknown rule '" + s.rule + "'";
      f.hint = "valid rules: pointer-stability, unordered-iteration, "
               "executor-hygiene, obs-naming, diag-hygiene, layering, "
               "lock-discipline, catalog-drift";
    } else if (s.justification.empty()) {
      f.message = "allow(" + s.rule + ") without a justification";
      f.hint = "suppressions must say why the code is safe: "
               "// pao-lint: allow(" + s.rule + "): <reason>";
    } else {
      continue;
    }
    findings.push_back(std::move(f));
  }
}

/// Runs the five per-file rules over one lexed TU.
void runFileRules(std::string_view path, const LexResult& lexed,
                  const std::vector<int>& depths, const Options& options,
                  std::vector<Finding>& findings) {
  rulePointerStability(path, lexed.tokens, depths, options, findings);
  ruleUnorderedIteration(path, lexed.tokens, depths, findings);
  ruleExecutorHygiene(path, lexed.tokens, options, findings);
  ruleSharedAtomicWrites(path, lexed.tokens, findings);
  ruleObsNaming(path, lexed.tokens, findings);
  ruleDiagHygiene(path, lexed.tokens, options, findings);
}

}  // namespace

Options::Options() : accessors(defaultAccessors()) {}

std::vector<AccessorAnnotation> defaultAccessors() {
  // Tech::addLayer / Tech::addViaDef once lived here but now return
  // references into deque storage, which never relocates. The remaining
  // entries are util::StringInterner's accessors: viewOf() hands out a
  // reference into the id->view vector and intern() can grow it, so a
  // viewOf reference held across an intern() dangles (the interned BYTES
  // are block-stable; the string_view slot is not).
  return {{"viewOf", "interner"}, {"intern", "interner"}};
}

bool isKnownRule(std::string_view rule) {
  return rule == kRulePointerStability || rule == kRuleUnorderedIteration ||
         rule == kRuleExecutorHygiene || rule == kRuleObsNaming ||
         rule == kRuleDiagHygiene || rule == kRuleLayering ||
         rule == kRuleLockDiscipline || rule == kRuleCatalogDrift;
}

std::vector<Finding> lintSource(std::string_view path, std::string_view src,
                                const Options& options) {
  const LexResult lexed = lex(src);
  const std::vector<int> depths = braceDepths(lexed.tokens);
  std::vector<Finding> findings;
  runFileRules(path, lexed, depths, options, findings);
  markSuppressed(path, lexed.suppressions, findings);
  reportBadSuppressions(path, lexed.suppressions, findings);
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return findings;
}

std::vector<Finding> lintTree(const std::vector<FileInput>& files,
                              const Options& options) {
  std::vector<Finding> findings;
  std::vector<FileFacts> facts;
  facts.reserve(files.size());
  for (const FileInput& in : files) {
    const LexResult lexed = lex(in.src);
    const std::vector<int> depths = braceDepths(lexed.tokens);
    runFileRules(in.path, lexed, depths, options, findings);
    facts.push_back(extractFacts(in.path, lexed));
  }
  std::vector<Finding> tree = analyzeTree(facts, options);
  findings.insert(findings.end(), std::make_move_iterator(tree.begin()),
                  std::make_move_iterator(tree.end()));
  // Suppressions run after the merge so tree-wide findings anchored in a
  // scanned file can be allow()ed at their anchor line like any other.
  // Findings anchored in the design document have no scanned source to
  // carry a comment — those can only be baselined.
  for (const FileFacts& ff : facts) {
    markSuppressed(ff.path, ff.suppressions, findings);
    reportBadSuppressions(ff.path, ff.suppressions, findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return findings;
}

std::vector<Finding> lintFile(const std::string& path, const Options& options,
                              std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string src = buf.str();
  return lintSource(path, src, options);
}

}  // namespace pao::lint
