#include "lint/output.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pao::lint {

namespace {

constexpr std::string_view kRepoComponents[] = {"src", "tools", "tests",
                                                "examples", "bench"};
constexpr std::string_view kRepoRootFiles[] = {"DESIGN.md", "README.md",
                                               "ROADMAP.md"};

void appendEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string jsonStr(std::string_view s) {
  std::string out = "\"";
  appendEscaped(out, s);
  out += '"';
  return out;
}

}  // namespace

bool parseFormat(std::string_view name, Format* out) {
  if (name == "text") {
    *out = Format::kText;
  } else if (name == "json") {
    *out = Format::kJson;
  } else if (name == "sarif") {
    *out = Format::kSarif;
  } else {
    return false;
  }
  return true;
}

const std::vector<RuleInfo>& ruleCatalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {kRulePointerStability,
       "reference from a reallocating container accessor used across a "
       "growth call on the same container",
       true},
      {kRuleUnorderedIteration,
       "range-for over an unordered_map/unordered_set writes output with no "
       "later canonical sort",
       true},
      {kRuleExecutorHygiene,
       "raw std::thread/std::jthread/std::async outside the executor; "
       "mutable-capture lambda or blocking socket I/O inside parallelFor; "
       "write to a namespace-scope or static std::atomic in src/",
       true},
      {kRuleObsNaming,
       "observability macro name literal not matching pao.<phase>.<metric>",
       true},
      {kRuleDiagHygiene,
       "bare throw std::runtime_error in library code (use a located "
       "ParseError/util::Diag)",
       true},
      {kRuleLayering,
       "project include violating the module DAG util -> geom -> db -> "
       "lefdef -> {drc, benchgen} -> {pao, viz} -> router -> serve (obs "
       "includable anywhere)",
       true},
      {kRuleLockDiscipline,
       "blocking call or nested re-lock while a lock_guard/scoped_lock/"
       "unique_lock is live; mutex pairs acquired in both orders across the "
       "tree",
       true},
      {kRuleCatalogDrift,
       "stable identifiers (error codes, fault points, metric names) present "
       "in code but missing from the DESIGN.md catalogs, or documented but "
       "dead in code",
       true},
      {kRuleSuppression,
       "malformed pao-lint allow() marker: unknown rule id or missing "
       "justification (not itself suppressible)",
       false},
  };
  return kCatalog;
}

std::string relativizePath(std::string_view path) {
  while (path.substr(0, 2) == "./") path.remove_prefix(2);
  std::size_t best = std::string_view::npos;
  for (const std::string_view comp : kRepoComponents) {
    // Match `comp` as a whole path component followed by more path.
    std::size_t at = 0;
    while (true) {
      const std::size_t hit = path.find(comp, at);
      if (hit == std::string_view::npos) break;
      const bool startsComponent = hit == 0 || path[hit - 1] == '/';
      const std::size_t after = hit + comp.size();
      const bool endsComponent = after < path.size() && path[after] == '/';
      if (startsComponent && endsComponent &&
          (best == std::string_view::npos || hit > best)) {
        best = hit;
      }
      at = hit + 1;
    }
  }
  if (best != std::string_view::npos) return std::string(path.substr(best));
  const std::size_t slash = path.rfind('/');
  const std::string_view base =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  for (const std::string_view root : kRepoRootFiles) {
    if (base == root) return std::string(base);
  }
  return std::string(path);
}

std::string baselineKey(const Finding& f) {
  return f.rule + "|" + relativizePath(f.file) + "|" + f.message;
}

bool loadBaseline(const std::string& path, Baseline* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open baseline " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line.front() == '#') continue;
    out->keys.insert(line);
  }
  return true;
}

std::string renderBaseline(const std::vector<Finding>& findings) {
  std::set<std::string> keys;
  for (const Finding& f : findings) {
    if (!f.suppressed) keys.insert(baselineKey(f));
  }
  std::string out =
      "# pao_lint baseline: one rule|file|message key per line. Findings\n"
      "# listed here are reported but do not fail the run; the ratchet only\n"
      "# tightens — regenerate with --write-baseline after burning one down.\n";
  for (const std::string& k : keys) {
    out += k;
    out += '\n';
  }
  return out;
}

std::string renderText(const std::vector<Finding>& findings,
                       std::size_t filesScanned, bool showSuppressed) {
  std::ostringstream out;
  std::size_t unsuppressed = 0;
  std::size_t suppressed = 0;
  std::size_t baselined = 0;
  for (const Finding& f : findings) {
    if (f.suppressed) {
      ++suppressed;
      if (!showSuppressed) continue;
    } else if (f.baselined) {
      ++baselined;
    } else {
      ++unsuppressed;
    }
    out << f.file << ':' << f.line << ": [" << f.rule << ']'
        << (f.suppressed ? " (suppressed)" : f.baselined ? " (baselined)" : "")
        << ' ' << f.message << '\n';
    if (!f.hint.empty()) out << "    hint: " << f.hint << '\n';
  }
  out << "pao_lint: " << unsuppressed << " finding(s), " << baselined
      << " baselined, " << suppressed << " suppressed, " << filesScanned
      << " file(s) scanned\n";
  return out.str();
}

std::string renderJson(const std::vector<Finding>& findings,
                       std::size_t filesScanned) {
  std::string out = "{\"tool\":\"pao_lint\",\"findings\":[";
  bool first = true;
  std::size_t unsuppressed = 0;
  std::size_t suppressed = 0;
  std::size_t baselined = 0;
  for (const Finding& f : findings) {
    if (f.suppressed) {
      ++suppressed;
    } else if (f.baselined) {
      ++baselined;
    } else {
      ++unsuppressed;
    }
    if (!first) out += ',';
    first = false;
    out += "{\"file\":" + jsonStr(f.file) +
           ",\"line\":" + std::to_string(f.line) +
           ",\"rule\":" + jsonStr(f.rule) +
           ",\"message\":" + jsonStr(f.message) +
           ",\"hint\":" + jsonStr(f.hint) +
           ",\"suppressed\":" + (f.suppressed ? "true" : "false") +
           ",\"baselined\":" + (f.baselined ? "true" : "false") + "}";
  }
  out += "],\"summary\":{\"findings\":" + std::to_string(unsuppressed) +
         ",\"baselined\":" + std::to_string(baselined) +
         ",\"suppressed\":" + std::to_string(suppressed) +
         ",\"files_scanned\":" + std::to_string(filesScanned) + "}}\n";
  return out;
}

std::string renderSarif(const std::vector<Finding>& findings) {
  std::string out =
      "{\"$schema\":"
      "\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"pao_lint\",\"informationUri\":"
      "\"DESIGN.md#static-analysis--invariants\",\"rules\":[";
  const std::vector<RuleInfo>& catalog = ruleCatalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"id\":" + jsonStr(catalog[i].id) +
           ",\"shortDescription\":{\"text\":" + jsonStr(catalog[i].summary) +
           "}}";
  }
  out += "]}},\"results\":[";
  bool first = true;
  for (const Finding& f : findings) {
    if (!first) out += ',';
    first = false;
    std::size_t ruleIndex = 0;
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      if (catalog[i].id == f.rule) ruleIndex = i;
    }
    std::string text = f.message;
    if (!f.hint.empty()) {
      text += " (hint: ";
      text += f.hint;
      text += ')';
    }
    out += "{\"ruleId\":" + jsonStr(f.rule) +
           ",\"ruleIndex\":" + std::to_string(ruleIndex) + ",\"level\":" +
           (f.suppressed || f.baselined ? jsonStr("note") : jsonStr("error")) +
           ",\"message\":{\"text\":" + jsonStr(text) +
           "},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{"
           "\"uri\":" +
           jsonStr(relativizePath(f.file)) +
           "},\"region\":{\"startLine\":" + std::to_string(std::max(f.line, 1)) +
           "}}}]";
    if (f.suppressed) {
      out += ",\"suppressions\":[{\"kind\":\"inSource\"}]";
    }
    out += ",\"baselineState\":";
    out += f.baselined ? jsonStr("unchanged") : jsonStr("new");
    out += '}';
  }
  out += "]}]}\n";
  return out;
}

}  // namespace pao::lint
