#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "benchgen/testcase.hpp"
#include "lefdef/def_route_writer.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/lef_writer.hpp"
#include "lefdef/lexer.hpp"
#include "lefdef/stream.hpp"
#include "reference.hpp"

namespace pao::lefdef {
namespace {

TEST(Lexer, TokensAndComments) {
  const std::string_view text =
      "FOO bar ; # comment to eol\n ( 1.5 ) \"quoted str\" END";
  const LineIndex lines(text);
  Lexer lex(text, lines);
  EXPECT_EQ(lex.next(), "FOO");
  EXPECT_EQ(lex.next(), "bar");
  EXPECT_TRUE(lex.accept(";"));
  EXPECT_TRUE(lex.accept("("));
  EXPECT_DOUBLE_EQ(lex.nextDouble(), 1.5);
  EXPECT_TRUE(lex.accept(")"));
  EXPECT_EQ(lex.next(), "quoted str");
  EXPECT_EQ(lex.peek(), "END");
  EXPECT_FALSE(lex.done());
  lex.next();
  EXPECT_TRUE(lex.done());
}

TEST(Lexer, ExpectThrowsWithLocation) {
  const std::string_view text = "A\nB";
  const LineIndex lines(text);
  Lexer lex(text, lines);
  lex.expect("A");
  try {
    lex.expect("C");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diag.code, "LEX002");
    EXPECT_EQ(e.diag.loc.line, 2u);
    EXPECT_EQ(e.diag.loc.col, 1u);
    EXPECT_EQ(e.diag.excerpt, "B");
  }
}

TEST(Lexer, DbuScaling) {
  const std::string_view text = "0.19 -0.5";
  const LineIndex lines(text);
  Lexer lex(text, lines);
  EXPECT_EQ(lex.nextDbu(2000), 380);
  EXPECT_EQ(lex.nextDbu(2000), -1000);
}

/// The lazy lexer must see exactly the tokens the eager reference
/// tokenizer saw — text, line and column — and raise the same LEX001 on a
/// read past the end. LEF parsing has no other differential check on the
/// lexer, so this is what holds parseLef to its earlier behaviour.
void expectMatchesReferenceTokens(std::string_view text) {
  const reference::TokenStream want = reference::tokenize(text);
  const LineIndex lines(text);
  Lexer lex(text, lines);
  const auto show = [](std::string_view tok, std::size_t line,
                       std::size_t col) {
    return "'" + std::string(tok) + "' at " + std::to_string(line) + ":" +
           std::to_string(col);
  };
  for (std::size_t i = 0; i < want.tokens.size(); ++i) {
    const reference::Token& w = want.tokens[i];
    ASSERT_FALSE(lex.done()) << "ended before token " << i;
    const std::size_t line = lex.line();
    const std::size_t col = lex.col();
    ASSERT_EQ(show(lex.next(), line, col), show(w.text, w.line, w.col))
        << "token " << i;
  }
  ASSERT_TRUE(lex.done()) << "extra token '" << lex.peek() << "'";
  try {
    lex.next();
    FAIL() << "expected LEX001 past the end";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diag.format(), want.endOfInput.format());
  }
}

std::string slurpFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Lexer, MatchesReferenceOnCorpusFiles) {
  std::vector<std::filesystem::path> paths;
  for (const auto& e :
       std::filesystem::directory_iterator(PAO_FUZZ_CORPUS_DIR)) {
    const std::string ext = e.path().extension().string();
    if (ext == ".lef" || ext == ".def") paths.push_back(e.path());
  }
  ASSERT_GE(paths.size(), 4u);
  for (const std::filesystem::path& p : paths) {
    SCOPED_TRACE(p.filename().string());
    expectMatchesReferenceTokens(slurpFile(p));
  }
}

TEST(Lexer, MatchesReferenceOnEveryPresetLefAndDef) {
  std::vector<benchgen::TestcaseSpec> specs = benchgen::ispd18Suite();
  specs.push_back(benchgen::aes14Spec());
  specs.push_back(benchgen::mixedSpec());
  for (const benchgen::TestcaseSpec& spec : specs) {
    SCOPED_TRACE(spec.name);
    const benchgen::Testcase tc = benchgen::generate(spec, /*scale=*/0.005);
    expectMatchesReferenceTokens(writeLef(*tc.tech, *tc.lib));
    expectMatchesReferenceTokens(writeDef(*tc.design));
  }
}

TEST(Lexer, QuotedStringSpanningLinesKeepsLineNumbers) {
  const std::string_view text = "A \"x\ny\nz\" B\n  C";
  const LineIndex lines(text);
  Lexer lex(text, lines);
  lex.next();
  EXPECT_EQ(lex.next(), "x\ny\nz");
  EXPECT_EQ(lex.line(), 3u);  // B
  EXPECT_EQ(lex.col(), 4u);
  lex.next();
  EXPECT_EQ(lex.line(), 4u);  // C
  EXPECT_EQ(lex.col(), 3u);
  expectMatchesReferenceTokens(text);
}

TEST(Lexer, MatchesReferenceOnTruncatedInputs) {
  // Every prefix at a fixed stride: cuts land inside tokens, comments and
  // quoted strings, and the LEX001 location at the cut must still match.
  constexpr std::size_t kStride = 13;
  for (const char* name : {"base.lef", "base.def"}) {
    SCOPED_TRACE(name);
    const std::string text =
        slurpFile(std::filesystem::path(PAO_FUZZ_CORPUS_DIR) / name);
    ASSERT_FALSE(text.empty());
    for (std::size_t cut = 0; cut <= text.size(); cut += kStride) {
      SCOPED_TRACE("cut " + std::to_string(cut));
      expectMatchesReferenceTokens(std::string_view(text).substr(0, cut));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Lef, ParseMinimal) {
  const char* lef = R"(
VERSION 5.8 ;
UNITS DATABASE MICRONS 2000 ; END UNITS
LAYER M1
  TYPE ROUTING ;
  DIRECTION HORIZONTAL ;
  PITCH 0.2 ;
  WIDTH 0.05 ;
  AREA 0.015 ;
  SPACING 0.05 ;
  SPACING 0.06 ENDOFLINE 0.055 WITHIN 0.025 ;
  MINSTEP 0.06 MAXEDGES 1 ;
END M1
LAYER V1
  TYPE CUT ;
  SPACING 0.05 ;
END V1
LAYER M2
  TYPE ROUTING ;
  DIRECTION VERTICAL ;
  PITCH 0.2 ;
  WIDTH 0.05 ;
END M2
VIA V1_0 DEFAULT
  LAYER M1 ;
    RECT -0.075 -0.03 0.075 0.03 ;
  LAYER V1 ;
    RECT -0.025 -0.025 0.025 0.025 ;
  LAYER M2 ;
    RECT -0.03 -0.075 0.03 0.075 ;
END V1_0
MACRO INVX1
  CLASS CORE ;
  SIZE 0.38 BY 1.71 ;
  PIN A
    DIRECTION INPUT ;
    USE SIGNAL ;
    PORT
      LAYER M1 ;
      RECT 0.05 0.3 0.11 0.9 ;
    END
  END A
  PIN VDD
    USE POWER ;
    PORT
      LAYER M1 ;
      RECT 0.0 1.62 0.38 1.71 ;
    END
  END VDD
  OBS
    LAYER M1 ;
    RECT 0.2 0.3 0.25 0.9 ;
  END
END INVX1
END LIBRARY
)";
  db::Tech tech;
  db::Library lib;
  parseLef(lef, tech, lib);

  EXPECT_EQ(tech.dbuPerMicron, 2000);
  const db::Layer* m1 = tech.findLayer("M1");
  ASSERT_NE(m1, nullptr);
  EXPECT_EQ(m1->type, db::LayerType::kRouting);
  EXPECT_EQ(m1->dir, db::Dir::kHorizontal);
  EXPECT_EQ(m1->pitch, 400);
  EXPECT_EQ(m1->width, 100);
  EXPECT_EQ(m1->minArea, 60000);
  EXPECT_EQ(m1->minSpacing(), 100);
  ASSERT_TRUE(m1->eol.has_value());
  EXPECT_EQ(m1->eol->space, 120);
  EXPECT_EQ(m1->eol->eolWidth, 110);
  EXPECT_EQ(m1->eol->within, 50);
  ASSERT_TRUE(m1->minStep.has_value());
  EXPECT_EQ(m1->minStep->minStepLength, 120);
  EXPECT_EQ(tech.findLayer("V1")->cutSpacing, 100);

  const db::ViaDef* via = tech.findViaDef("V1_0");
  ASSERT_NE(via, nullptr);
  EXPECT_TRUE(via->isDefault);
  EXPECT_EQ(via->botEnc, geom::Rect(-150, -60, 150, 60));
  EXPECT_EQ(via->cut, geom::Rect(-50, -50, 50, 50));
  EXPECT_EQ(via->topEnc, geom::Rect(-60, -150, 60, 150));

  const db::Master* inv = lib.findMaster("INVX1");
  ASSERT_NE(inv, nullptr);
  EXPECT_EQ(inv->width, 760);
  EXPECT_EQ(inv->height, 3420);
  ASSERT_EQ(inv->pins.size(), 2u);
  EXPECT_EQ(inv->pins[0].name, "A");
  EXPECT_EQ(inv->pins[0].use, db::PinUse::kSignal);
  EXPECT_EQ(inv->pins[0].shapes.size(), 1u);
  EXPECT_EQ(inv->pins[1].use, db::PinUse::kPower);
  ASSERT_EQ(inv->obstructions.size(), 1u);
  EXPECT_EQ(inv->obstructions[0].rect, geom::Rect(400, 600, 500, 1800));
}

TEST(Lef, SpacingTableParsed) {
  const char* lef = R"(
UNITS DATABASE MICRONS 1000 ; END UNITS
LAYER M1
  TYPE ROUTING ;
  SPACINGTABLE PARALLELRUNLENGTH 0 0.2
    WIDTH 0 0.05 0.05
    WIDTH 0.1 0.05 0.1 ;
END M1
END LIBRARY
)";
  db::Tech tech;
  db::Library lib;
  parseLef(lef, tech, lib);
  const db::Layer* m1 = tech.findLayer("M1");
  ASSERT_EQ(m1->spacingTable.size(), 4u);
  EXPECT_EQ(m1->spacing(120, 250), 100);
  EXPECT_EQ(m1->spacing(90, 250), 50);
}

TEST(Def, ParseMinimal) {
  // Build the tech/library via LEF, then a DEF referencing it.
  db::Tech tech;
  db::Library lib;
  parseLef(R"(
UNITS DATABASE MICRONS 2000 ; END UNITS
LAYER M1 TYPE ROUTING ; DIRECTION HORIZONTAL ; END M1
LAYER M2 TYPE ROUTING ; DIRECTION VERTICAL ; END M2
MACRO INVX1
  CLASS CORE ;
  SIZE 0.38 BY 1.71 ;
  PIN A USE SIGNAL ; PORT LAYER M1 ; RECT 0.05 0.3 0.11 0.9 ; END END A
  PIN Z USE SIGNAL ; PORT LAYER M1 ; RECT 0.2 0.3 0.26 0.9 ; END END Z
END INVX1
END LIBRARY
)",
           tech, lib);

  db::Design design;
  design.tech = &tech;
  design.lib = &lib;
  parseDef(R"(
VERSION 5.8 ;
DESIGN top ;
UNITS DISTANCE MICRONS 2000 ;
DIEAREA ( 0 0 ) ( 100000 100000 ) ;
ROW ROW_0 core 0 0 N DO 100 BY 1 STEP 760 0 ;
TRACKS Y 200 DO 250 STEP 400 LAYER M1 ;
TRACKS X 200 DO 250 STEP 400 LAYER M2 ;
COMPONENTS 2 ;
 - u1 INVX1 + PLACED ( 1000 2000 ) N ;
 - u2 INVX1 + PLACED ( 3000 2000 ) FS ;
END COMPONENTS
PINS 1 ;
 - io1 + NET n1 + LAYER M2 ( -100 -100 ) ( 100 100 ) + PLACED ( 5000 0 ) N ;
END PINS
NETS 1 ;
 - n1 ( u1 Z ) ( u2 A ) ( PIN io1 ) ;
END NETS
END DESIGN
)",
           design);

  EXPECT_EQ(design.name, "top");
  EXPECT_EQ(design.dieArea, geom::Rect(0, 0, 100000, 100000));
  ASSERT_EQ(design.rows.size(), 1u);
  EXPECT_EQ(design.rows[0].numSites, 100);
  ASSERT_EQ(design.trackPatterns.size(), 2u);
  EXPECT_EQ(design.trackPatterns[0].axis, db::Dir::kHorizontal);
  EXPECT_EQ(design.trackPatterns[1].axis, db::Dir::kVertical);
  ASSERT_EQ(design.instances.size(), 2u);
  EXPECT_EQ(design.instances[0].origin, geom::Point(1000, 2000));
  EXPECT_EQ(design.instances[1].orient, geom::Orient::MX);
  ASSERT_EQ(design.ioPins.size(), 1u);
  EXPECT_EQ(design.ioPins[0].rect, geom::Rect(4900, -100, 5100, 100));
  ASSERT_EQ(design.nets.size(), 1u);
  ASSERT_EQ(design.nets[0].terms.size(), 3u);
  EXPECT_EQ(design.nets[0].terms[0].instIdx, 0);
  EXPECT_EQ(design.nets[0].terms[2].ioPinIdx, 0);
  EXPECT_EQ(design.numNetInstTerms(), 2u);
}

TEST(Def, UnknownMasterThrows) {
  db::Tech tech;
  db::Library lib;
  db::Design design;
  design.tech = &tech;
  design.lib = &lib;
  EXPECT_THROW(parseDef(R"(
COMPONENTS 1 ;
 - u1 NO_SUCH + PLACED ( 0 0 ) N ;
END COMPONENTS
)",
                        design),
               ParseError);
}

TEST(RoundTrip, GeneratedTestcaseSurvivesWriteParse) {
  // Write a small generated testcase to LEF/DEF text, parse it back, and
  // compare the structural content.
  const benchgen::Testcase tc =
      benchgen::generate(benchgen::ispd18Suite()[0], /*scale=*/0.01);

  const std::string lefText = writeLef(*tc.tech, *tc.lib);
  db::Tech tech2;
  db::Library lib2;
  parseLef(lefText, tech2, lib2);

  EXPECT_EQ(tech2.layers().size(), tc.tech->layers().size());
  EXPECT_EQ(tech2.viaDefs().size(), tc.tech->viaDefs().size());
  for (std::size_t i = 0; i < tech2.layers().size(); ++i) {
    const db::Layer& a = tc.tech->layers()[i];
    const db::Layer& b = tech2.layers()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.pitch, b.pitch);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.minArea, b.minArea);
    EXPECT_EQ(a.cutSpacing, b.cutSpacing);
    // The writer densifies the spacing table; compare behavior, not size.
    for (const geom::Coord w : {0, 150, 250, 700, 1500}) {
      for (const geom::Coord p : {0, 150, 250, 700, 1500}) {
        EXPECT_EQ(a.spacing(w, p), b.spacing(w, p))
            << a.name << " w=" << w << " p=" << p;
      }
    }
  }
  EXPECT_EQ(lib2.masters().size(), tc.lib->masters().size());
  for (std::size_t i = 0; i < lib2.masters().size(); ++i) {
    const db::Master& a = *tc.lib->masters()[i];
    const db::Master& b = *lib2.masters()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.height, b.height);
    EXPECT_EQ(a.pins.size(), b.pins.size());
    EXPECT_EQ(a.obstructions.size(), b.obstructions.size());
  }

  const std::string defText = writeDef(*tc.design);
  db::Design design2;
  design2.tech = &tech2;
  design2.lib = &lib2;
  parseDef(defText, design2);

  EXPECT_EQ(design2.name, tc.design->name);
  EXPECT_EQ(design2.dieArea, tc.design->dieArea);
  EXPECT_EQ(design2.instances.size(), tc.design->instances.size());
  EXPECT_EQ(design2.nets.size(), tc.design->nets.size());
  EXPECT_EQ(design2.ioPins.size(), tc.design->ioPins.size());
  EXPECT_EQ(design2.trackPatterns.size(), tc.design->trackPatterns.size());
  for (std::size_t i = 0; i < design2.instances.size(); ++i) {
    EXPECT_EQ(design2.instances[i].name, tc.design->instances[i].name);
    EXPECT_EQ(design2.instances[i].origin, tc.design->instances[i].origin);
    EXPECT_EQ(design2.instances[i].orient, tc.design->instances[i].orient);
  }
  for (std::size_t i = 0; i < design2.nets.size(); ++i) {
    EXPECT_EQ(design2.nets[i].terms.size(),
              tc.design->nets[i].terms.size());
  }
}

TEST(RoutedDef, EmitsRoutedStatements) {
  const benchgen::Testcase tc =
      benchgen::generate(benchgen::ispd18Suite()[0], /*scale=*/0.005);
  std::vector<RoutedShape> routed;
  const db::Layer* m3 = tc.tech->findLayer("M3");
  const db::Layer* v1 = tc.tech->findLayer("V1");
  // One horizontal wire and one via on net 0.
  routed.push_back({0, m3->index, {1000, 940, 3000, 1060}, false});
  routed.push_back({0, v1->index, {1930, 930, 2070, 1070}, true});
  const std::string text = writeRoutedDef(*tc.design, routed);

  EXPECT_NE(text.find("+ ROUTED"), std::string::npos);
  EXPECT_NE(text.find("M3 ( 1060 1000 ) ( 2940 1000 )"), std::string::npos);
  EXPECT_NE(text.find("V1_0"), std::string::npos);
  // The routed DEF still parses with the plain parser (ROUTED clauses are
  // skipped as unknown '+' attributes).
  db::Design parsed;
  parsed.tech = tc.tech.get();
  parsed.lib = tc.lib.get();
  parseDef(text, parsed);
  EXPECT_EQ(parsed.nets.size(), tc.design->nets.size());
  EXPECT_EQ(parsed.instances.size(), tc.design->instances.size());
}

TEST(RoutedDef, NetsWithoutRoutingStayPlain) {
  const benchgen::Testcase tc =
      benchgen::generate(benchgen::ispd18Suite()[0], /*scale=*/0.005);
  const std::string text = writeRoutedDef(*tc.design, {});
  EXPECT_EQ(text.find("+ ROUTED"), std::string::npos);
  db::Design parsed;
  parsed.tech = tc.tech.get();
  parsed.lib = tc.lib.get();
  parseDef(text, parsed);
  EXPECT_EQ(parsed.nets.size(), tc.design->nets.size());
}

}  // namespace
}  // namespace pao::lefdef
