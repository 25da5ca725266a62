// Golden tests for located parse diagnostics: exact header strings
// (file:line:col, severity, stable code), the excerpt/caret block, strict
// vs recovery behavior, multi-error accumulation, and the GEN001 cap.
// Downstream tooling keys off these exact formats — treat any change as a
// breaking one.
#include <gtest/gtest.h>

#include "lefdef/lef_parser.hpp"
#include "lefdef/lexer.hpp"
#include "lefdef/stream.hpp"
#include "util/diag.hpp"

namespace pao::lefdef {
namespace {

// -------------------------------------------------------------- util::Diag

TEST(Diag, HeaderGolden) {
  util::Diag d;
  d.code = "LEX003";
  d.loc = {"test.lef", 6, 9};
  d.message = "expected number, got 'x'";
  EXPECT_EQ(d.header(), "test.lef:6:9: error: [LEX003] expected number, got 'x'");
}

TEST(Diag, HeaderWithoutLocation) {
  util::Diag d;
  d.code = "GEN000";
  d.loc.file = "in.def";
  d.message = "boom";
  EXPECT_EQ(d.header(), "in.def: error: [GEN000] boom");
}

TEST(Diag, WarningSeverityName) {
  util::Diag d;
  d.severity = util::Severity::kWarning;
  d.code = "GEN000";
  d.loc = {"a.lef", 2, 1};
  d.message = "m";
  EXPECT_EQ(d.header(), "a.lef:2:1: warning: [GEN000] m");
}

TEST(Diag, FormatAppendsExcerptAndCaret) {
  util::Diag d;
  d.code = "LEX003";
  d.loc = {"test.lef", 6, 9};
  d.message = "expected number, got 'x'";
  d.excerpt = "  PITCH x ;";
  EXPECT_EQ(d.format(),
            "test.lef:6:9: error: [LEX003] expected number, got 'x'\n"
            "  6 |   PITCH x ;\n"
            "    |         ^");
}

TEST(DiagSink, CountsOnlyErrors) {
  util::DiagSink sink;
  util::Diag w;
  w.severity = util::Severity::kWarning;
  sink.add(w);
  EXPECT_FALSE(sink.hasErrors());
  sink.add(util::Diag{});
  EXPECT_EQ(sink.errorCount(), 1u);
  EXPECT_EQ(sink.diags().size(), 2u);
}

// ------------------------------------------------------------- LEF strict

// Line 5, col 9 points at the 'x' of "  PITCH x ;".
constexpr const char* kBadPitchLef =
    "VERSION 5.8 ;\n"
    "UNITS DATABASE MICRONS 2000 ; END UNITS\n"
    "LAYER M1\n"
    "  TYPE ROUTING ;\n"
    "  PITCH x ;\n"
    "END M1\n";

TEST(LefDiag, StrictThrowsWithExactLocation) {
  db::Tech tech;
  db::Library lib;
  ParseOptions opts;
  opts.file = "test.lef";
  try {
    parseLef(kBadPitchLef, tech, lib, opts);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diag.header(),
              "test.lef:5:9: error: [LEX003] expected number, got 'x'");
    EXPECT_EQ(e.diag.excerpt, "  PITCH x ;");
    // what() carries the fully formatted form, caret included.
    EXPECT_EQ(std::string(e.what()),
              "test.lef:5:9: error: [LEX003] expected number, got 'x'\n"
              "  5 |   PITCH x ;\n"
              "    |         ^");
  }
}

TEST(LefDiag, TruncatedInputIsLex001) {
  db::Tech tech;
  db::Library lib;
  try {
    parseLef("LAYER M1\n  TYPE ROUTING ;\n  PITCH", tech, lib);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diag.code, "LEX001");
  }
}

// ----------------------------------------------------------- LEF recovery

TEST(LefDiag, RecoveryAccumulatesAndKeepsParsing) {
  // Two independent errors; recovery must report both and still deliver
  // the good layer that follows them.
  const char* lef =
      "UNITS DATABASE MICRONS 2000 ; END UNITS\n"
      "LAYER M1\n"
      "  TYPE ROUTING ;\n"
      "  PITCH x ;\n"
      "END M1\n"
      "LAYER M2\n"
      "  TYPE ROUTING ;\n"
      "  WIDTH y ;\n"
      "END M2\n"
      "LAYER M3\n"
      "  TYPE ROUTING ;\n"
      "  PITCH 0.2 ;\n"
      "END M3\n";
  db::Tech tech;
  db::Library lib;
  ParseOptions opts;
  opts.file = "multi.lef";
  opts.recover = true;
  const ParseResult res = parseLef(lef, tech, lib, opts);
  ASSERT_EQ(res.errorCount(), 2u);
  EXPECT_EQ(res.diags[0].code, "LEX003");
  EXPECT_EQ(res.diags[0].loc.line, 4u);
  EXPECT_EQ(res.diags[1].code, "LEX003");
  EXPECT_EQ(res.diags[1].loc.line, 8u);
  // The clean layer after both errors still parsed.
  const db::Layer* m3 = tech.findLayer("M3");
  ASSERT_NE(m3, nullptr);
  EXPECT_EQ(m3->pitch, 400);
}

TEST(LefDiag, MaxErrorsAppendsGen001) {
  std::string lef = "UNITS DATABASE MICRONS 2000 ; END UNITS\n";
  for (int i = 0; i < 8; ++i) {
    lef += "LAYER L" + std::to_string(i) + "\n  PITCH x ;\nEND L" +
           std::to_string(i) + "\n";
  }
  db::Tech tech;
  db::Library lib;
  ParseOptions opts;
  opts.file = "many.lef";
  opts.recover = true;
  opts.maxErrors = 3;
  const ParseResult res = parseLef(lef, tech, lib, opts);
  ASSERT_FALSE(res.diags.empty());
  EXPECT_EQ(res.diags.back().code, "GEN001");
  EXPECT_EQ(res.diags.back().header(),
            "many.lef: error: [GEN001] too many errors; giving up");
  // 3 real errors + the GEN001 marker, then parsing stopped.
  EXPECT_EQ(res.errorCount(), 4u);
}

// -------------------------------------------------------------------- DEF

void miniLef(db::Tech& tech, db::Library& lib) {
  parseLef(
      "UNITS DATABASE MICRONS 2000 ; END UNITS\n"
      "LAYER M1 TYPE ROUTING ; DIRECTION HORIZONTAL ; END M1\n"
      "MACRO INVX1\n"
      "  CLASS CORE ;\n"
      "  SIZE 0.38 BY 1.71 ;\n"
      "  PIN A USE SIGNAL ; PORT LAYER M1 ; RECT 0.05 0.3 0.11 0.9 ; END END A\n"
      "END INVX1\n"
      "END LIBRARY\n",
      tech, lib);
}

TEST(DefDiag, UnknownMasterGolden) {
  db::Tech tech;
  db::Library lib;
  miniLef(tech, lib);
  db::Design design;
  design.tech = &tech;
  design.lib = &lib;
  // Line 2: " - u1 NO_SUCH + PLACED ( 0 0 ) N ;" — NO_SUCH is at col 7.
  const char* def =
      "COMPONENTS 1 ;\n"
      " - u1 NO_SUCH + PLACED ( 0 0 ) N ;\n"
      "END COMPONENTS\n";
  ParseOptions opts;
  opts.file = "bad.def";
  try {
    parseDef(def, design, opts);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(
        e.diag.header(),
        "bad.def:2:7: error: [DEF002] component references unknown master "
        "'NO_SUCH'");
  }
}

TEST(DefDiag, RecoverySkipsBadEntitiesKeepsGood) {
  db::Tech tech;
  db::Library lib;
  miniLef(tech, lib);
  db::Design design;
  design.tech = &tech;
  design.lib = &lib;
  const char* def =
      "COMPONENTS 3 ;\n"
      " - u1 INVX1 + PLACED ( 0 0 ) N ;\n"
      " - u2 NO_SUCH + PLACED ( 0 0 ) N ;\n"
      " - u3 INVX1 + PLACED ( 760 0 ) N ;\n"
      "END COMPONENTS\n"
      "NETS 1 ;\n"
      " - n1 ( u1 A ) ( nope A ) ;\n"
      "END NETS\n";
  ParseOptions opts;
  opts.file = "r.def";
  opts.recover = true;
  const ParseResult res = parseDef(def, design, opts);
  ASSERT_EQ(res.errorCount(), 2u);
  EXPECT_EQ(res.diags[0].code, "DEF002");
  EXPECT_EQ(res.diags[1].code, "DEF004");
  // u1/u3 survived; the net mentioning an unknown component was dropped
  // whole, never left half-built.
  ASSERT_EQ(design.instances.size(), 2u);
  EXPECT_EQ(design.instances[0].name, "u1");
  EXPECT_EQ(design.instances[1].name, "u3");
  EXPECT_TRUE(design.nets.empty());
}

TEST(DefDiag, StableCodesAreDocumentedSet) {
  // The code set is API: LEX001-003, DEF001-005, GEN000/GEN001. Spot-check
  // a DEF001 (unknown TRACKS layer) and DEF005 (unknown pin on master).
  db::Tech tech;
  db::Library lib;
  miniLef(tech, lib);
  db::Design design;
  design.tech = &tech;
  design.lib = &lib;
  ParseOptions opts;
  opts.recover = true;
  const ParseResult res = parseDef(
      "TRACKS Y 200 DO 10 STEP 400 LAYER M9 ;\n"
      "COMPONENTS 1 ;\n"
      " - u1 INVX1 + PLACED ( 0 0 ) N ;\n"
      "END COMPONENTS\n"
      "NETS 1 ;\n"
      " - n1 ( u1 NOPIN ) ;\n"
      "END NETS\n",
      design, opts);
  ASSERT_EQ(res.errorCount(), 2u);
  EXPECT_EQ(res.diags[0].code, "DEF001");
  EXPECT_EQ(res.diags[1].code, "DEF005");
}

}  // namespace
}  // namespace pao::lefdef
