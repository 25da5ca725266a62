// Tests for pao_lint (tools/lint/): tokenizer behavior, the per-file rules
// against in-memory sources and the known-positive / known-negative fixture
// files under tests/lint_fixtures/, the suppression syntax, and the
// whole-program pass (layering, lock-discipline, catalog-drift) plus its
// output formats and baseline ratchet.
#include <algorithm>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint/analysis.hpp"
#include "lint/lexer.hpp"
#include "lint/output.hpp"
#include "lint/rules.hpp"
#include "obs/json.hpp"

namespace {

using pao::lint::Finding;
using pao::lint::lintFile;
using pao::lint::lintSource;
using pao::lint::Options;
using pao::lint::TokKind;

std::string fixture(const std::string& name) {
  return std::string(PAO_LINT_FIXTURE_DIR) + "/" + name;
}

/// Options used by the fixture tests: the fixtures' fake Store::addWidget
/// accessor is annotated as returning an unstable reference.
Options fixtureOptions() {
  Options o;
  o.accessors.push_back({"addWidget", "widgets"});
  return o;
}

std::vector<const Finding*> unsuppressed(const std::vector<Finding>& fs) {
  std::vector<const Finding*> out;
  for (const Finding& f : fs) {
    if (!f.suppressed) out.push_back(&f);
  }
  return out;
}

std::vector<Finding> lintFixture(const std::string& name) {
  std::string error;
  std::vector<Finding> fs = lintFile(fixture(name), fixtureOptions(), &error);
  EXPECT_EQ(error, "") << name;
  return fs;
}

// --- Lexer ---------------------------------------------------------------

TEST(LintLexer, TokenizesIdentifiersStringsAndFusedPuncts) {
  const auto r = pao::lint::lex("a->b(\"s\") << c::d;");
  std::vector<std::string> texts;
  for (const auto& t : r.tokens) texts.emplace_back(t.text);
  EXPECT_EQ(texts, (std::vector<std::string>{"a", "->", "b", "(", "\"s\"",
                                             ")", "<<", "c", "::", "d", ";"}));
}

TEST(LintLexer, StripsCommentsAndPreprocessorLines) {
  const auto r = pao::lint::lex(
      "#include <thread>\n// std::thread in a comment\n/* std::async */\nint "
      "x;\n");
  ASSERT_EQ(r.tokens.size(), 3u);
  EXPECT_EQ(r.tokens[0].text, "int");
  EXPECT_EQ(r.tokens[1].line, 4);
}

TEST(LintLexer, StringContentsAreOpaque) {
  const auto r = pao::lint::lex("const char* s = \"std::thread\";");
  const auto findings = lintSource("x.cpp", "void f() { (void)\"std::thread\"; }",
                                   Options());
  EXPECT_TRUE(findings.empty());
  ASSERT_GE(r.tokens.size(), 6u);
  EXPECT_EQ(r.tokens[5].kind, TokKind::kString);
}

TEST(LintLexer, ParsesSuppressionsWithJustification) {
  const auto r = pao::lint::lex(
      "int x;  // pao-lint: allow(executor-hygiene): bench owns its pool\n");
  ASSERT_EQ(r.suppressions.size(), 1u);
  EXPECT_EQ(r.suppressions[0].rule, "executor-hygiene");
  EXPECT_EQ(r.suppressions[0].justification, "bench owns its pool");
  EXPECT_EQ(r.suppressions[0].line, 1);
}

TEST(LintLexer, IgnoresSyntaxDocumentationMentioningAllow) {
  const auto r =
      pao::lint::lex("// pao-lint: allow(<rule>) is how you suppress\n");
  EXPECT_TRUE(r.suppressions.empty());
}

// --- pointer-stability ---------------------------------------------------

TEST(LintPointerStability, FlagsAllKnownPositives) {
  const auto fs = lintFixture("pointer_stability_positive.cpp");
  const auto live = unsuppressed(fs);
  ASSERT_EQ(live.size(), 4u);
  for (const Finding* f : live) EXPECT_EQ(f->rule, "pointer-stability");
  EXPECT_EQ(live[0]->line, 20);  // generic emplace_back dangle
  EXPECT_EQ(live[1]->line, 27);  // annotated accessor dangle
  EXPECT_EQ(live[2]->line, 36);  // push_back invalidation
  EXPECT_EQ(live[3]->line, 49);  // interner viewOf held across intern
  EXPECT_NE(live[1]->message.find("addWidget"), std::string::npos);
  EXPECT_NE(live[3]->message.find("intern"), std::string::npos);
}

// The interner accessors ship in the built-in annotation list (see
// util/interner.hpp's storage contract), not just in test options.
TEST(LintPointerStability, DefaultAccessorsCoverInterner) {
  const auto acc = pao::lint::defaultAccessors();
  const auto has = [&acc](const std::string& method) {
    return std::any_of(acc.begin(), acc.end(), [&](const auto& a) {
      return a.method == method && a.group == "interner";
    });
  };
  EXPECT_TRUE(has("viewOf"));
  EXPECT_TRUE(has("intern"));
}

TEST(LintPointerStability, AcceptsAllKnownNegatives) {
  const auto fs = lintFixture("pointer_stability_negative.cpp");
  EXPECT_TRUE(unsuppressed(fs).empty());
  // The deque case is present but suppressed with a justification.
  EXPECT_EQ(std::count_if(fs.begin(), fs.end(),
                          [](const Finding& f) { return f.suppressed; }),
            1);
}

TEST(LintPointerStability, SiblingAccessorsInSameGroupInvalidate) {
  Options o;
  o.accessors.push_back({"addLayer", "db-layers"});
  o.accessors.push_back({"insertLayer", "db-layers"});
  const auto fs = lintSource("x.cpp",
                             "void f(Tech& t) {\n"
                             "  Layer& a = t.addLayer(1);\n"
                             "  t.insertLayer(0);\n"
                             "  a.index = 3;\n"
                             "}\n",
                             o);
  const auto live = unsuppressed(fs);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0]->line, 4);
  EXPECT_NE(live[0]->message.find("insertLayer"), std::string::npos);
}

TEST(LintPointerStability, DifferentReceiversDoNotInvalidate) {
  Options o;
  o.accessors.push_back({"addLayer", "db-layers"});
  const auto fs = lintSource("x.cpp",
                             "void f(Tech& t1, Tech& t2) {\n"
                             "  Layer& a = t1.addLayer(1);\n"
                             "  t2.addLayer(2);\n"
                             "  a.index = 3;\n"
                             "}\n",
                             o);
  EXPECT_TRUE(unsuppressed(fs).empty());
}

TEST(LintPointerStability, ScopeExitDropsBindings) {
  const auto fs = lintSource("x.cpp",
                             "void f() {\n"
                             "  std::vector<int> v;\n"
                             "  { int& r = v.emplace_back(1); r = 2; }\n"
                             "  v.emplace_back(2);\n"
                             "  int r = 0;\n"  // unrelated r, new scope
                             "  (void)r;\n"
                             "}\n",
                             Options());
  EXPECT_TRUE(unsuppressed(fs).empty());
}

// --- unordered-iteration -------------------------------------------------

TEST(LintUnorderedIteration, FlagsAllKnownPositives) {
  const auto fs = lintFixture("unordered_iteration_positive.cpp");
  const auto live = unsuppressed(fs);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0]->rule, "unordered-iteration");
  EXPECT_EQ(live[0]->line, 10);
  EXPECT_EQ(live[1]->line, 20);
}

TEST(LintUnorderedIteration, AcceptsAllKnownNegatives) {
  const auto fs = lintFixture("unordered_iteration_negative.cpp");
  EXPECT_TRUE(unsuppressed(fs).empty());
}

TEST(LintUnorderedIteration, SortInsideEnclosingBlockCounts) {
  const auto fs = lintSource(
      "x.cpp",
      "std::vector<int> f(const std::unordered_set<int>& s) {\n"
      "  std::vector<int> out;\n"
      "  for (int v : s) out.push_back(v);\n"
      "  std::stable_sort(out.begin(), out.end());\n"
      "  return out;\n"
      "}\n",
      Options());
  EXPECT_TRUE(unsuppressed(fs).empty());
}

// --- executor-hygiene ----------------------------------------------------

TEST(LintExecutorHygiene, FlagsAllKnownPositives) {
  const auto fs = lintFixture("executor_hygiene_positive.cpp");
  const auto live = unsuppressed(fs);
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[0]->line, 13);
  EXPECT_NE(live[0]->message.find("std::thread"), std::string::npos);
  EXPECT_EQ(live[1]->line, 18);
  EXPECT_NE(live[1]->message.find("std::async"), std::string::npos);
  EXPECT_EQ(live[2]->line, 25);
  EXPECT_NE(live[2]->message.find("mutable"), std::string::npos);
}

TEST(LintExecutorHygiene, AcceptsAllKnownNegatives) {
  const auto fs = lintFixture("executor_hygiene_negative.cpp");
  EXPECT_TRUE(unsuppressed(fs).empty());
}

TEST(LintExecutorHygiene, ExecutorImplementationIsExempt) {
  const auto fs = lintSource("src/util/jobs.cpp",
                             "void f() { std::thread t; }", Options());
  EXPECT_TRUE(unsuppressed(fs).empty());
  const auto other =
      lintSource("src/drc/engine.cpp", "void f() { std::thread t; }",
                 Options());
  EXPECT_EQ(unsuppressed(other).size(), 1u);
}

/// Reads a fixture file but lints it under a synthetic path, for rules whose
/// applicability depends on the source location (the src/serve/ socket ban).
std::vector<Finding> lintFixtureAs(const std::string& name,
                                   const std::string& asPath) {
  std::ifstream f(fixture(name));
  EXPECT_TRUE(f.good()) << name;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string src = ss.str();
  return lintSource(asPath, src, fixtureOptions());
}

TEST(LintExecutorHygiene, FlagsSocketIoInServeWorkers) {
  const auto fs = lintFixtureAs("executor_hygiene_serve_positive.cpp",
                                "src/serve/fixture.cpp");
  const auto live = unsuppressed(fs);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0]->line, 22);
  EXPECT_NE(live[0]->message.find("'read'"), std::string::npos);
  EXPECT_EQ(live[1]->line, 33);
  EXPECT_NE(live[1]->message.find("'send'"), std::string::npos);
}

TEST(LintExecutorHygiene, AcceptsServeSocketNegatives) {
  const auto fs = lintFixtureAs("executor_hygiene_serve_negative.cpp",
                                "src/serve/fixture.cpp");
  EXPECT_TRUE(unsuppressed(fs).empty());
}

TEST(LintExecutorHygiene, SocketBanIsScopedToServePaths) {
  // The same worker-reads-socket source is legal outside src/serve/ (e.g.
  // a test harness driving real client sockets from parallelFor).
  const auto fs = lintFixtureAs("executor_hygiene_serve_positive.cpp",
                                "tests/test_serve.cpp");
  EXPECT_TRUE(unsuppressed(fs).empty());
}

TEST(LintExecutorHygiene, FlagsJobGraphPositives) {
  const auto fs = lintFixture("executor_hygiene_jobs_positive.cpp");
  const auto live = unsuppressed(fs);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0]->line, 25);
  EXPECT_NE(live[0]->message.find("mutable-capture lambda submitted"),
            std::string::npos);
  EXPECT_EQ(live[1]->line, 33);
  EXPECT_NE(live[1]->message.find("parallelFor inside a job-node body"),
            std::string::npos);
}

TEST(LintExecutorHygiene, FlagsSocketIoInServeJobNodes) {
  // Under src/serve/ the same fixture additionally trips the socket ban
  // for the read() inside a graph node.
  const auto fs = lintFixtureAs("executor_hygiene_jobs_positive.cpp",
                                "src/serve/fixture.cpp");
  const auto live = unsuppressed(fs);
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[2]->line, 44);
  EXPECT_NE(live[2]->message.find("'read'"), std::string::npos);
  EXPECT_NE(live[2]->message.find("job-graph node"), std::string::npos);
}

TEST(LintExecutorHygiene, AcceptsJobGraphNegatives) {
  EXPECT_TRUE(
      unsuppressed(lintFixture("executor_hygiene_jobs_negative.cpp")).empty());
  // The dispatch shape stays clean under the serve socket ban too.
  const auto fs = lintFixtureAs("executor_hygiene_jobs_negative.cpp",
                                "src/serve/fixture.cpp");
  EXPECT_TRUE(unsuppressed(fs).empty());
}

TEST(LintExecutorHygiene, JobGraphImplementationIsExempt) {
  // The job-graph implementation owns its worker pool: raw std::thread is
  // exempt there, exactly like the executor.
  const auto fs = lintSource("src/util/jobs.cpp",
                             "void f() { std::thread t; }", Options());
  EXPECT_TRUE(unsuppressed(fs).empty());
}

TEST(LintExecutorHygiene, FlagsSharedAtomicWrites) {
  const auto fs = lintFixtureAs("executor_hygiene_atomic_positive.cpp",
                                "src/pao/fixture.cpp");
  const auto live = unsuppressed(fs);
  const std::vector<int> lines = {15, 16, 24, 25, 26, 27, 28, 29};
  ASSERT_EQ(live.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(live[i]->line, lines[i]);
    EXPECT_NE(live[i]->message.find("write to shared atomic"),
              std::string::npos);
  }
  EXPECT_NE(live[0]->message.find("'gResets'"), std::string::npos);
  EXPECT_NE(live[2]->message.find("'once'"), std::string::npos);
}

TEST(LintExecutorHygiene, AcceptsSharedAtomicNegatives) {
  const auto fs = lintFixtureAs("executor_hygiene_atomic_negative.cpp",
                                "src/pao/fixture.cpp");
  EXPECT_TRUE(unsuppressed(fs).empty());
  // The justified store is a suppressed finding, not a missed one.
  EXPECT_EQ(fs.size(), 1u);
}

TEST(LintExecutorHygiene, SharedAtomicCheckIsScopedToLibraryCode) {
  // The obs registry and the job graph own process-wide atomics, and code
  // outside src/ (benches, tests, tools) may count however it likes.
  for (const std::string path :
       {"src/obs/metrics.cpp", "src/util/jobs.hpp", "bench/bench_x.cpp",
        "tests/test_x.cpp"}) {
    EXPECT_TRUE(unsuppressed(lintFixtureAs(
                                 "executor_hygiene_atomic_positive.cpp", path))
                    .empty())
        << path;
  }
}

TEST(LintExecutorHygiene, FlagsSharedWritesInTaskBodies) {
  const auto fs = lintFixtureAs("executor_hygiene_tally_positive.cpp",
                                "src/pao/fixture.cpp");
  const auto live = unsuppressed(fs);
  const std::vector<int> lines = {32, 34, 35, 40, 41, 50, 51};
  ASSERT_EQ(live.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(live[i]->line, lines[i]);
    EXPECT_NE(live[i]->message.find("shared write"), std::string::npos);
  }
  EXPECT_NE(live[0]->message.find("'fetch_add' inside a job-node body"),
            std::string::npos);
  EXPECT_NE(live[2]->message.find("'PAO_COUNTER_INC'"), std::string::npos);
  EXPECT_NE(live[5]->message.find("'PAO_GAUGE_SET' inside a parallelFor"),
            std::string::npos);
}

TEST(LintExecutorHygiene, AcceptsTalliesMergedAfterTheRun) {
  const auto fs = lintFixtureAs("executor_hygiene_tally_negative.cpp",
                                "src/pao/fixture.cpp");
  EXPECT_TRUE(fs.empty());
}

TEST(LintExecutorHygiene, SharedWriteCheckIsScopedToLibraryCode) {
  // The obs registry and the job graph own the shared state; benches,
  // tests and tools may count from their tasks however they like.
  for (const std::string path :
       {"src/obs/metrics.cpp", "src/util/jobs.cpp", "bench/bench_x.cpp",
        "tests/test_x.cpp", "tools/x.cpp"}) {
    EXPECT_TRUE(unsuppressed(lintFixtureAs(
                                 "executor_hygiene_tally_positive.cpp", path))
                    .empty())
        << path;
  }
}

TEST(LintExecutorHygiene, NestedSubmissionIsReportedOnce) {
  // A parallelFor nested in a job body is one finding of its own; the
  // shared write inside it is reported once, not once per enclosing call.
  const auto fs = lintSource("src/pao/x.cpp",
                             "void f(G& g, A& a) {\n"
                             "  g.addJob([&] {\n"
                             "    parallelFor(4, [&](int) {\n"
                             "      a.fetch_add(1);\n"
                             "    }, 2);\n"
                             "  });\n"
                             "}\n",
                             Options());
  const auto live = unsuppressed(fs);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0]->line, 3);
  EXPECT_NE(live[0]->message.find("parallelFor inside a job-node body"),
            std::string::npos);
  EXPECT_EQ(live[1]->line, 4);
  EXPECT_NE(live[1]->message.find("'fetch_add' inside a job-node body"),
            std::string::npos);
}

// --- obs-naming ----------------------------------------------------------

TEST(LintObsNaming, FlagsAllKnownPositives) {
  const auto fs = lintFixture("obs_naming_positive.cpp");
  const auto live = unsuppressed(fs);
  ASSERT_EQ(live.size(), 5u);
  for (const Finding* f : live) EXPECT_EQ(f->rule, "obs-naming");
  EXPECT_EQ(live[0]->line, 10);  // missing pao. root
  EXPECT_EQ(live[1]->line, 11);  // only two segments
  EXPECT_EQ(live[2]->line, 12);  // uppercase
  EXPECT_EQ(live[3]->line, 13);  // empty segment
  EXPECT_EQ(live[4]->line, 14);  // dash not allowed
  EXPECT_NE(live[0]->message.find("step1.pins"), std::string::npos);
  // The justified allow() in the fixture suppresses exactly one finding.
  EXPECT_EQ(std::count_if(fs.begin(), fs.end(),
                          [](const Finding& f) { return f.suppressed; }),
            1);
}

TEST(LintObsNaming, AcceptsAllKnownNegatives) {
  const auto fs = lintFixture("obs_naming_negative.cpp");
  EXPECT_TRUE(unsuppressed(fs).empty());
}

TEST(LintObsNaming, MacroDefinitionLinesAreInvisible) {
  // The real macros are defined on preprocessor lines, which the lexer
  // strips — so obs/metrics.hpp's own `#define PAO_COUNTER_ADD(...)` bodies
  // never trip the rule.
  const auto fs = lintSource(
      "src/obs/metrics.hpp",
      "#define PAO_COUNTER_ADD(name, n) \\\n"
      "  do { registryAdd(name, n); } while (0)\n"
      "int x;\n",
      Options());
  EXPECT_TRUE(unsuppressed(fs).empty());
}

TEST(LintObsNaming, AllowsSuppressionById) {
  const auto fs = lintSource(
      "x.cpp",
      "void PAO_COUNTER_INC(const char*);\n"
      "// pao-lint: allow(obs-naming): legacy dashboard expects this name\n"
      "void f() { PAO_COUNTER_INC(\"legacy_counter\"); }\n",
      Options());
  EXPECT_TRUE(unsuppressed(fs).empty());
}

// --- diag-hygiene --------------------------------------------------------

/// The fixture directory lives under tests/, which the default options
/// exempt from diag-hygiene — so lint the fixture's content under a
/// synthetic library path instead.
std::vector<Finding> lintDiagFixture(const std::string& name) {
  std::string error;
  std::ifstream in(fixture(name));
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return lintSource("src/lefdef/" + name, buf.str(), fixtureOptions());
}

TEST(LintDiagHygiene, FlagsAllKnownPositives) {
  const auto fs = lintDiagFixture("diag_hygiene_positive.cpp");
  const auto live = unsuppressed(fs);
  ASSERT_EQ(live.size(), 2u);
  for (const Finding* f : live) EXPECT_EQ(f->rule, "diag-hygiene");
  EXPECT_EQ(live[0]->line, 11);
  EXPECT_EQ(live[1]->line, 16);
  EXPECT_NE(live[0]->hint.find("ParseError"), std::string::npos);
}

TEST(LintDiagHygiene, AcceptsAllKnownNegatives) {
  const auto fs = lintDiagFixture("diag_hygiene_negative.cpp");
  EXPECT_TRUE(unsuppressed(fs).empty());
  // The justified allow() covers exactly the one bare throw.
  EXPECT_EQ(std::count_if(fs.begin(), fs.end(),
                          [](const Finding& f) { return f.suppressed; }),
            1);
}

TEST(LintDiagHygiene, ExemptPathsAreSkipped) {
  const std::string src = "void f() { throw std::runtime_error(\"x\"); }";
  EXPECT_TRUE(
      unsuppressed(lintSource("src/util/fault.cpp", src, Options())).empty());
  EXPECT_TRUE(
      unsuppressed(lintSource("tools/pao_cli.cpp", src, Options())).empty());
  EXPECT_TRUE(unsuppressed(lintSource("tests/test_fault.cpp", src, Options()))
                  .empty());
  EXPECT_EQ(
      unsuppressed(lintSource("src/pao/session.cpp", src, Options())).size(),
      1u);
}

// --- suppression syntax --------------------------------------------------

TEST(LintSuppression, MalformedSuppressionsAreReported) {
  const auto fs = lintFixture("suppression_malformed.cpp");
  const auto live = unsuppressed(fs);
  // 2 raw-thread findings (the bad allows do not suppress) + 1 missing
  // justification + 1 unknown rule id.
  ASSERT_EQ(live.size(), 4u);
  const auto count = [&](std::string_view rule) {
    return std::count_if(live.begin(), live.end(), [&](const Finding* f) {
      return f->rule == rule;
    });
  };
  EXPECT_EQ(count("executor-hygiene"), 2);
  EXPECT_EQ(count("suppression"), 2);
}

TEST(LintSuppression, CommentOnPrecedingLineCoversNextLine) {
  const auto fs = lintSource(
      "x.cpp",
      "// pao-lint: allow(executor-hygiene): spawn cost benchmark\n"
      "void f() { std::thread t; }\n",
      Options());
  EXPECT_TRUE(unsuppressed(fs).empty());
}

TEST(LintSuppression, WrongRuleDoesNotSuppress) {
  const auto fs = lintSource(
      "x.cpp",
      "// pao-lint: allow(pointer-stability): wrong rule for this finding\n"
      "void f() { std::thread t; }\n",
      Options());
  EXPECT_EQ(unsuppressed(fs).size(), 1u);
}

// --- Whole-program pass (lintTree) ---------------------------------------

std::string readFixture(const std::string& name) {
  std::ifstream in(fixture(name));
  EXPECT_TRUE(in.is_open()) << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs lintTree over fixture files mounted at synthetic repo paths (the
/// layering and catalog rules key off src/<module>/ components that the
/// real lint_fixtures/ directory deliberately lacks).
std::vector<Finding> lintTreeFixtures(
    const std::vector<std::pair<std::string, std::string>>& pathAndFixture,
    const Options& options) {
  std::vector<pao::lint::FileInput> files;
  for (const auto& [path, name] : pathAndFixture) {
    files.push_back({path, readFixture(name)});
  }
  return pao::lint::lintTree(files, options);
}

/// Options wired to the miniature design doc the catalog fixtures are
/// audited against.
Options docOptions() {
  Options o = fixtureOptions();
  o.designDocPath = "catalog_drift_doc.md";
  o.designDocText = readFixture("catalog_drift_doc.md");
  return o;
}

std::vector<const Finding*> ruleFindings(const std::vector<Finding>& fs,
                                         std::string_view rule) {
  std::vector<const Finding*> out;
  for (const Finding& f : fs) {
    if (!f.suppressed && f.rule == rule) out.push_back(&f);
  }
  return out;
}

TEST(LintLayering, ModuleRanksFollowTheDag) {
  using pao::lint::moduleRankOfFile;
  using pao::lint::moduleRankOfInclude;
  EXPECT_LT(moduleRankOfInclude("util/env.hpp"),
            moduleRankOfInclude("geom/polygon.hpp"));
  EXPECT_LT(moduleRankOfInclude("db/tech.hpp"),
            moduleRankOfInclude("serve/service.hpp"));
  EXPECT_EQ(moduleRankOfInclude("obs/metrics.hpp"), 0);
  EXPECT_EQ(moduleRankOfInclude("vector"), -1);
  EXPECT_EQ(moduleRankOfFile("src/drc/engine.cpp"),
            moduleRankOfInclude("drc/engine.hpp"));
  EXPECT_EQ(moduleRankOfFile("tools/pao_cli.cpp"), -1);
  EXPECT_EQ(moduleRankOfFile("tests/test_lint.cpp"), -1);
}

TEST(LintLayering, PositiveFixtureFlagsUpwardAndSiblingIncludes) {
  const auto fs = lintTreeFixtures(
      {{"src/drc/layering_positive.cpp", "layering_positive.cpp"}}, Options());
  const auto hits = ruleFindings(fs, pao::lint::kRuleLayering);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0]->line, 8);  // serve/ from drc/: upward
  EXPECT_EQ(hits[1]->line, 9);  // benchgen/ from drc/: sibling
  EXPECT_EQ(unsuppressed(fs).size(), 2u);
}

TEST(LintLayering, NegativeFixtureIsClean) {
  const auto fs = lintTreeFixtures(
      {{"src/router/layering_negative.cpp", "layering_negative.cpp"}},
      Options());
  EXPECT_TRUE(unsuppressed(fs).empty());
}

TEST(LintLockDiscipline, PositiveFixtureFlagsBlockingAndDoubleLock) {
  const auto fs = lintTreeFixtures(
      {{"src/db/lock_discipline_positive.cpp", "lock_discipline_positive.cpp"}},
      Options());
  const auto hits = ruleFindings(fs, pao::lint::kRuleLockDiscipline);
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0]->line, 21);  // std::ifstream under gMu
  EXPECT_EQ(hits[1]->line, 27);  // parallelFor under gMu
  EXPECT_EQ(hits[2]->line, 32);  // join() under scoped_lock
  EXPECT_EQ(hits[3]->line, 37);  // double lock of gMu
  EXPECT_NE(hits[3]->message.find("double lock"), std::string::npos);
  EXPECT_EQ(unsuppressed(fs).size(), 4u);
}

TEST(LintLockDiscipline, NegativeFixtureIsClean) {
  const auto fs = lintTreeFixtures(
      {{"src/db/lock_discipline_negative.cpp", "lock_discipline_negative.cpp"}},
      Options());
  EXPECT_TRUE(unsuppressed(fs).empty());
}

TEST(LintLockDiscipline, CrossFileInversionFlagsBothSites) {
  const auto fs = lintTreeFixtures(
      {{"src/db/lock_order_a.cpp", "lock_order_a.cpp"},
       {"src/db/lock_order_b.cpp", "lock_order_b.cpp"}},
      Options());
  const auto hits = ruleFindings(fs, pao::lint::kRuleLockDiscipline);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0]->file, "src/db/lock_order_a.cpp");
  EXPECT_EQ(hits[0]->line, 13);
  EXPECT_EQ(hits[1]->file, "src/db/lock_order_b.cpp");
  EXPECT_EQ(hits[1]->line, 11);
  EXPECT_NE(hits[0]->message.find("acquisition order"), std::string::npos);
}

TEST(LintLockDiscipline, TreeRuleFindingsAreSuppressible) {
  const std::string src =
      "std::mutex m;\n"
      "void f(const char* p) {\n"
      "  const std::lock_guard<std::mutex> g(m);\n"
      "  // pao-lint: allow(lock-discipline): startup path, no contention\n"
      "  std::ifstream in(p);\n"
      "}\n";
  const auto fs = pao::lint::lintTree({{"src/db/s.cpp", src}}, Options());
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, pao::lint::kRuleLockDiscipline);
  EXPECT_TRUE(fs[0].suppressed);
}

TEST(LintCatalogDrift, PositiveFixtureFlagsBothDirections) {
  const auto fs = lintTreeFixtures(
      {{"src/fix/catalog_drift_positive.cpp", "catalog_drift_positive.cpp"}},
      docOptions());
  const auto hits = ruleFindings(fs, pao::lint::kRuleCatalogDrift);
  ASSERT_EQ(hits.size(), 4u);
  // Dead-in-docs finding is anchored in the doc; sort order puts the doc
  // path first (c < s).
  EXPECT_EQ(hits[0]->file, "catalog_drift_doc.md");
  EXPECT_NE(hits[0]->message.find("pao.fix.gone"), std::string::npos);
  EXPECT_EQ(hits[1]->line, 12);
  EXPECT_NE(hits[1]->message.find("SRV777"), std::string::npos);
  EXPECT_EQ(hits[2]->line, 16);
  EXPECT_NE(hits[2]->message.find("pao.fix.beta"), std::string::npos);
  EXPECT_EQ(hits[3]->line, 21);
  EXPECT_NE(hits[3]->message.find("pt.two"), std::string::npos);
  EXPECT_EQ(unsuppressed(fs).size(), 4u);
}

TEST(LintCatalogDrift, NegativeFixtureIsClean) {
  const auto fs = lintTreeFixtures(
      {{"src/fix/catalog_drift_negative.cpp", "catalog_drift_negative.cpp"}},
      docOptions());
  EXPECT_TRUE(unsuppressed(fs).empty());
}

TEST(LintCatalogDrift, TestsPathsAreExemptButStillKeepEntriesAlive) {
  // Mounted under tests/: the undocumented-in-code direction is waived, but
  // the file's uses still feed the alive set, so only pao.fix.gone (which
  // the positive fixture never mentions) stays dead.
  const auto fs = lintTreeFixtures(
      {{"tests/catalog_drift_positive.cpp", "catalog_drift_positive.cpp"}},
      docOptions());
  const auto hits = ruleFindings(fs, pao::lint::kRuleCatalogDrift);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->file, "catalog_drift_doc.md");
  EXPECT_NE(hits[0]->message.find("pao.fix.gone"), std::string::npos);
}

std::string readRealDesignDoc() {
  std::ifstream in(PAO_DESIGN_DOC);
  EXPECT_TRUE(in.is_open()) << PAO_DESIGN_DOC;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<const Finding*> mentioning(const std::vector<Finding>& fs,
                                       std::string_view ident) {
  std::vector<const Finding*> out;
  for (const Finding& f : fs) {
    if (!f.suppressed && f.rule == pao::lint::kRuleCatalogDrift &&
        f.message.find(ident) != std::string::npos) {
      out.push_back(&f);
    }
  }
  return out;
}

TEST(LintCatalogDrift, DeletingADocumentedCodeFailsBothDirections) {
  // The ISSUE acceptance scenario, run against the real DESIGN.md: a
  // scratch copy with SRV004 scrubbed must (a) flag an emission site of
  // SRV004 as undocumented, while the intact doc does not, and (b) the
  // intact doc must flag SRV004 as dead when no scanned file emits it.
  const std::string doc = readRealDesignDoc();
  ASSERT_NE(doc.find("SRV004"), std::string::npos);
  std::string scrubbed = doc;
  for (std::size_t at = scrubbed.find("SRV004"); at != std::string::npos;
       at = scrubbed.find("SRV004", at)) {
    scrubbed.replace(at, 6, "zzzzzz");
  }

  const std::string emitter =
      "const char* unknownTenant() { return \"SRV004\"; }\n";
  Options intact;
  intact.designDocPath = "DESIGN.md";
  intact.designDocText = doc;
  Options cut = intact;
  cut.designDocText = scrubbed;

  // (a) undocumented-in-code: only the scrubbed doc produces a finding.
  const auto clean =
      pao::lint::lintTree({{"src/serve/emitter.cpp", emitter}}, intact);
  EXPECT_TRUE(mentioning(clean, "SRV004").empty());
  const auto broken =
      pao::lint::lintTree({{"src/serve/emitter.cpp", emitter}}, cut);
  const auto undocumented = mentioning(broken, "SRV004");
  ASSERT_EQ(undocumented.size(), 1u);
  EXPECT_EQ(undocumented[0]->file, "src/serve/emitter.cpp");
  EXPECT_EQ(undocumented[0]->line, 1);

  // (b) dead-in-docs: the intact doc plus a tree that never emits SRV004.
  const auto dead = pao::lint::lintTree(
      {{"src/serve/emitter.cpp", "int x;\n"}}, intact);
  const auto deadHits = mentioning(dead, "SRV004");
  ASSERT_EQ(deadHits.size(), 1u);
  EXPECT_EQ(deadHits[0]->file, "DESIGN.md");
}

// --- Output formats and the baseline ratchet -----------------------------

TEST(LintOutput, RelativizePathFindsLastRepoComponent) {
  using pao::lint::relativizePath;
  EXPECT_EQ(relativizePath("/home/u/repo/src/db/tech.hpp"), "src/db/tech.hpp");
  EXPECT_EQ(relativizePath("./tools/lint/rules.cpp"), "tools/lint/rules.cpp");
  EXPECT_EQ(relativizePath("/home/u/repo/DESIGN.md"), "DESIGN.md");
  EXPECT_EQ(relativizePath("unrooted.cpp"), "unrooted.cpp");
  // `last` component: a scratch checkout under a src/ directory still
  // resolves to the in-repo path.
  EXPECT_EQ(relativizePath("/src/jobs/repo/src/geom/rect.hpp"),
            "src/geom/rect.hpp");
}

TEST(LintOutput, BaselineKeyIgnoresLineNumbers) {
  Finding a;
  a.rule = pao::lint::kRuleLayering;
  a.file = "/abs/path/src/drc/engine.cpp";
  a.line = 10;
  a.message = "m";
  Finding b = a;
  b.file = "src/drc/engine.cpp";
  b.line = 99;
  EXPECT_EQ(pao::lint::baselineKey(a), pao::lint::baselineKey(b));

  pao::lint::Baseline base;
  base.keys.insert(pao::lint::baselineKey(a));
  EXPECT_TRUE(base.contains(b));
  b.message = "other";
  EXPECT_FALSE(base.contains(b));
}

TEST(LintOutput, BaselineRoundTripsThroughRenderAndLoad) {
  const auto fs = lintTreeFixtures(
      {{"src/db/lock_discipline_positive.cpp", "lock_discipline_positive.cpp"}},
      Options());
  ASSERT_FALSE(fs.empty());
  const std::string path =
      ::testing::TempDir() + "/pao_lint_baseline_test.txt";
  {
    std::ofstream out(path);
    out << pao::lint::renderBaseline(fs);
  }
  pao::lint::Baseline base;
  std::string error;
  ASSERT_TRUE(pao::lint::loadBaseline(path, &base, &error)) << error;
  for (const Finding& f : fs) EXPECT_TRUE(base.contains(f));

  // The ratchet only silences what it has seen: a new finding still fires.
  Finding fresh;
  fresh.rule = pao::lint::kRuleLockDiscipline;
  fresh.file = "src/db/other.cpp";
  fresh.message = "new regression";
  EXPECT_FALSE(base.contains(fresh));
}

TEST(LintOutput, JsonReportParsesAndCountsFindings) {
  const auto fs = lintTreeFixtures(
      {{"src/drc/layering_positive.cpp", "layering_positive.cpp"}}, Options());
  const std::string text = pao::lint::renderJson(fs, 1);
  std::string error;
  const auto doc = pao::obs::Json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const pao::obs::Json* findings = doc->find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_TRUE(findings->isArray());
  EXPECT_EQ(findings->items().size(), fs.size());
  const pao::obs::Json* summary = doc->find("summary");
  ASSERT_NE(summary, nullptr);
  const pao::obs::Json* files = summary->find("files_scanned");
  ASSERT_NE(files, nullptr);
  EXPECT_EQ(files->asDouble(), 1.0);
}

TEST(LintOutput, SarifReportHasRulesResultsAndLocations) {
  auto fs = lintTreeFixtures(
      {{"src/db/lock_discipline_positive.cpp", "lock_discipline_positive.cpp"}},
      Options());
  ASSERT_EQ(fs.size(), 4u);
  fs[0].suppressed = true;   // exercise the suppressions array
  fs[1].baselined = true;    // exercise baselineState "unchanged"
  const std::string text = pao::lint::renderSarif(fs);
  std::string error;
  const auto doc = pao::obs::Json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;

  const pao::obs::Json* version = doc->find("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->asString(), "2.1.0");
  const pao::obs::Json* runs = doc->find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->items().size(), 1u);
  const pao::obs::Json& run = runs->items()[0];

  const pao::obs::Json* driver = run.find("tool")->find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->find("name")->asString(), "pao_lint");
  EXPECT_EQ(driver->find("rules")->items().size(),
            pao::lint::ruleCatalog().size());

  const pao::obs::Json* results = run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items().size(), fs.size());
  const pao::obs::Json& first = results->items()[0];
  EXPECT_EQ(first.find("ruleId")->asString(), "lock-discipline");
  ASSERT_NE(first.find("message")->find("text"), nullptr);
  const pao::obs::Json& loc =
      first.find("locations")->items()[0];
  const pao::obs::Json* phys = loc.find("physicalLocation");
  ASSERT_NE(phys, nullptr);
  EXPECT_EQ(phys->find("artifactLocation")->find("uri")->asString(),
            "src/db/lock_discipline_positive.cpp");
  EXPECT_EQ(phys->find("region")->find("startLine")->asDouble(), 21.0);
  ASSERT_NE(first.find("suppressions"), nullptr);
  EXPECT_EQ(first.find("suppressions")
                ->items()[0]
                .find("kind")
                ->asString(),
            "inSource");
  EXPECT_EQ(results->items()[1].find("baselineState")->asString(),
            "unchanged");
  EXPECT_EQ(results->items()[2].find("baselineState")->asString(), "new");
}

TEST(LintOutput, RuleCatalogCoversEveryKnownRule) {
  const auto& catalog = pao::lint::ruleCatalog();
  EXPECT_EQ(catalog.size(), 9u);
  for (const auto& rule : catalog) {
    EXPECT_FALSE(rule.summary.empty()) << rule.id;
    if (rule.id == pao::lint::kRuleSuppression) {
      EXPECT_FALSE(rule.suppressible);
    } else {
      EXPECT_TRUE(rule.suppressible) << rule.id;
    }
  }
  pao::lint::Format fmt = pao::lint::Format::kText;
  EXPECT_TRUE(pao::lint::parseFormat("sarif", &fmt));
  EXPECT_EQ(fmt, pao::lint::Format::kSarif);
  EXPECT_FALSE(pao::lint::parseFormat("xml", &fmt));
}

}  // namespace
