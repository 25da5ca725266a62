// DEF ingest equivalence: parseDefStream (and parseDef, its one-thread
// wrapper) must be indistinguishable from the frozen single-pass reference
// parser in tests/reference_lefdef.cpp — same design bytes (compared via
// db::designFingerprint), same diagnostics in the same order, same
// recovery and bail-out behaviour — at every preset, thread count, and
// chunk size; and the sharded unique-instance extraction must reproduce
// the serial class numbering exactly.
#include "lefdef/stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/testcase.hpp"
#include "db/fingerprint.hpp"
#include "db/unique_inst.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/lef_writer.hpp"
#include "pao/oracle.hpp"
#include "pao/session.hpp"
#include "reference.hpp"
#include "util/fault.hpp"

namespace pao {
namespace {

using lefdef::IngestStats;
using lefdef::ParseError;
using lefdef::ParseOptions;
using lefdef::ParseResult;
using lefdef::StreamOptions;

benchgen::Testcase smallCase() {
  benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
  spec.numCells = 150;
  spec.numNets = 80;
  return benchgen::generate(spec, 1.0);
}

/// Streamed parse with chunks small enough that even test-sized DEFs split
/// into several of them.
StreamOptions tinyChunks(int threads, bool recover = false,
                         std::size_t maxErrors = 64) {
  StreamOptions opts;
  opts.parse.recover = recover;
  opts.parse.maxErrors = maxErrors;
  opts.numThreads = threads;
  opts.chunkBytes = 2048;
  return opts;
}

void expectSameDiags(const std::vector<util::Diag>& got,
                     const std::vector<util::Diag>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("diag " + std::to_string(i));
    EXPECT_EQ(got[i].code, want[i].code);
    EXPECT_EQ(got[i].loc.file, want[i].loc.file);
    EXPECT_EQ(got[i].loc.line, want[i].loc.line);
    EXPECT_EQ(got[i].loc.col, want[i].loc.col);
    EXPECT_EQ(got[i].message, want[i].message);
    EXPECT_EQ(got[i].excerpt, want[i].excerpt);
  }
}

/// Breaks the generated DEF so both parsers must recover: every 5th
/// component's master ('~' prefix -> DEF002), every 3rd IO pin's PLACED x
/// ('~0' -> LEX003), every 7th net term ('~' on the component or PIN name
/// -> DEF004/DEF003), and optionally the first TRACKS layer (DEF001, in the
/// serial preamble). '~' never starts a real identifier or number, so each
/// edit is a guaranteed error.
std::string corruptDef(std::string text, bool corruptTracks) {
  std::vector<std::size_t> inserts;
  if (corruptTracks) {
    const std::size_t layer = text.find(" LAYER ");
    if (layer != std::string::npos) inserts.push_back(layer + 7);
  }
  const std::size_t compBegin = text.find("COMPONENTS ");
  const std::size_t compEnd = text.find("END COMPONENTS");
  int nComp = 0;
  for (std::size_t p = text.find("\n - ", compBegin);
       p != std::string::npos && p < compEnd;
       p = text.find("\n - ", p + 1)) {
    const std::size_t master = text.find(' ', p + 4) + 1;
    if (++nComp % 5 == 0) inserts.push_back(master);
  }
  const std::size_t pinsBegin = text.find("\nPINS ");
  const std::size_t pinsEnd = text.find("END PINS");
  int nPin = 0;
  for (std::size_t p = text.find("+ PLACED ( ", pinsBegin);
       p != std::string::npos && p < pinsEnd;
       p = text.find("+ PLACED ( ", p + 1)) {
    if (++nPin % 3 == 0) inserts.push_back(p + 11);
  }
  const std::size_t netsBegin = text.find("\nNETS ");
  const std::size_t netsEnd = text.find("END NETS");
  int nTerm = 0;
  for (std::size_t p = text.find("( ", netsBegin);
       p != std::string::npos && p < netsEnd; p = text.find("( ", p + 2)) {
    if (++nTerm % 7 == 0) inserts.push_back(p + 2);
  }
  std::sort(inserts.begin(), inserts.end());
  for (auto it = inserts.rbegin(); it != inserts.rend(); ++it) {
    text.insert(*it, "~");
  }
  return text;
}

db::Design freshTarget(const benchgen::Testcase& tc) {
  db::Design d;
  d.tech = tc.tech.get();
  d.lib = tc.lib.get();
  return d;
}

/// The reference's strict-mode first error on `text`, or a diag with an
/// empty code when the reference parse succeeds.
util::Diag referenceStrictError(const benchgen::Testcase& tc,
                                const std::string& text) {
  db::Design ref = freshTarget(tc);
  try {
    reference::parseDef(text, ref);
  } catch (const ParseError& e) {
    return e.diag;
  }
  return {};
}

/// parseDefStream(text, opts) against the reference: recovery diagnostics
/// and fingerprint, then the strict-mode outcome. A strict throw must
/// carry the reference's first error and leave the target untouched.
void expectMatchesReference(const benchgen::Testcase& tc,
                            const std::string& text, StreamOptions opts) {
  ParseOptions recover = opts.parse;
  recover.recover = true;
  recover.maxErrors = 1000;  // the larger presets bail out of recovery
  db::Design ref = freshTarget(tc);
  const ParseResult want = reference::parseDef(text, ref, recover);

  opts.parse = recover;
  db::Design streamed = freshTarget(tc);
  IngestStats stats;
  const ParseResult got =
      lefdef::parseDefStream(text, streamed, opts, &stats);
  expectSameDiags(got.diags, want.diags);
  EXPECT_EQ(db::designFingerprint(streamed), db::designFingerprint(ref));
  EXPECT_EQ(stats.components, ref.instances.size());
  EXPECT_EQ(stats.nets, ref.nets.size());
  EXPECT_EQ(stats.legacyFallback,
            !want.diags.empty() && want.diags.back().code == "GEN001");

  const util::Diag wantErr = referenceStrictError(tc, text);
  opts.parse.recover = false;
  db::Design strict = freshTarget(tc);
  try {
    lefdef::parseDefStream(text, strict, opts);
    EXPECT_TRUE(wantErr.code.empty()) << "expected " << wantErr.format();
    EXPECT_EQ(db::designFingerprint(strict), db::designFingerprint(ref));
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diag.format(), wantErr.format());
    EXPECT_TRUE(strict.instances.empty());
    EXPECT_TRUE(strict.nets.empty());
    EXPECT_TRUE(strict.name.empty());
  }
}

// ------------------------------------------------------ clean-input parity

TEST(StreamEquivalence, EveryPresetMatchesLegacyAtEveryThreadCount) {
  std::vector<benchgen::TestcaseSpec> specs = benchgen::ispd18Suite();
  specs.push_back(benchgen::aes14Spec());
  specs.push_back(benchgen::mixedSpec());
  for (const benchgen::TestcaseSpec& spec : specs) {
    SCOPED_TRACE(spec.name);
    const benchgen::Testcase tc = benchgen::generate(spec, /*scale=*/0.01);
    const std::string text = lefdef::writeDef(*tc.design);

    db::Design ref = freshTarget(tc);
    reference::parseDef(text, ref);
    const std::uint64_t want = db::designFingerprint(ref);

    db::Design wrapped = freshTarget(tc);
    lefdef::parseDef(text, wrapped);
    EXPECT_EQ(db::designFingerprint(wrapped), want);

    for (const int threads : {1, 4, 0}) {
      for (const std::size_t chunkBytes :
           {std::size_t{2048}, std::size_t{1} << 20}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " chunkBytes=" + std::to_string(chunkBytes));
        StreamOptions opts = tinyChunks(threads);
        opts.chunkBytes = chunkBytes;
        db::Design streamed = freshTarget(tc);
        IngestStats stats;
        const ParseResult res =
            lefdef::parseDefStream(text, streamed, opts, &stats);
        EXPECT_TRUE(res.ok());
        EXPECT_EQ(db::designFingerprint(streamed), want);
        EXPECT_EQ(stats.components, ref.instances.size());
        EXPECT_EQ(stats.nets, ref.nets.size());
        EXPECT_EQ(stats.bytes, text.size());
        EXPECT_FALSE(stats.legacyFallback);
        // The same preset with every kind of entity error planted.
        expectMatchesReference(tc, corruptDef(text, /*corruptTracks=*/true),
                               opts);
      }
    }
  }
}

TEST(StreamEquivalence, ChunkSizeNeverChangesTheResult) {
  const benchgen::Testcase tc = smallCase();
  const std::string text = lefdef::writeDef(*tc.design);
  db::Design ref = freshTarget(tc);
  reference::parseDef(text, ref);
  const std::uint64_t want = db::designFingerprint(ref);

  for (const std::size_t chunkBytes :
       {std::size_t{1}, std::size_t{512}, std::size_t{1} << 14,
        std::size_t{1} << 26}) {
    SCOPED_TRACE("chunkBytes=" + std::to_string(chunkBytes));
    StreamOptions opts = tinyChunks(/*threads=*/4);
    opts.chunkBytes = chunkBytes;
    db::Design streamed = freshTarget(tc);
    IngestStats stats;
    EXPECT_TRUE(lefdef::parseDefStream(text, streamed, opts, &stats).ok());
    EXPECT_EQ(db::designFingerprint(streamed), want);
  }
}

// ------------------------------------------------- diagnostics equivalence

TEST(StreamEquivalence, RecoveryDiagsMatchLegacyExactly) {
  const benchgen::Testcase tc = smallCase();
  const std::string text =
      corruptDef(lefdef::writeDef(*tc.design), /*corruptTracks=*/true);

  ParseOptions refOpts;
  refOpts.recover = true;
  refOpts.maxErrors = 1000;  // plenty: the whole error list, no bail
  db::Design ref = freshTarget(tc);
  const ParseResult wantRes = reference::parseDef(text, ref, refOpts);
  ASSERT_FALSE(wantRes.ok());
  ASSERT_LT(wantRes.errorCount(), 1000u);

  for (const int threads : {1, 4, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    db::Design streamed = freshTarget(tc);
    IngestStats stats;
    const ParseResult res = lefdef::parseDefStream(
        text, streamed, tinyChunks(threads, /*recover=*/true, 1000), &stats);
    expectSameDiags(res.diags, wantRes.diags);
    EXPECT_EQ(db::designFingerprint(streamed), db::designFingerprint(ref));
    EXPECT_FALSE(stats.legacyFallback);
  }
  db::Design wrapped = freshTarget(tc);
  expectSameDiags(lefdef::parseDef(text, wrapped, refOpts).diags,
                  wantRes.diags);
  EXPECT_EQ(db::designFingerprint(wrapped), db::designFingerprint(ref));
}

/// Sweeps maxErrors from 1 to one past the error count of `text`; every
/// bail-out must leave the reference's diagnostics and design, and set
/// legacyFallback exactly when GEN001 was appended. Collects the code of
/// the diagnostic each bail-out stopped at.
void sweepMaxErrors(const benchgen::Testcase& tc, const std::string& text,
                    std::set<std::string>& bailCodes) {
  ParseOptions refOpts;
  refOpts.recover = true;
  refOpts.maxErrors = 1000;
  db::Design all = freshTarget(tc);
  const std::size_t total =
      reference::parseDef(text, all, refOpts).errorCount();
  ASSERT_GT(total, 10u);

  for (std::size_t maxErrors = 1; maxErrors <= total + 1; ++maxErrors) {
    SCOPED_TRACE("maxErrors=" + std::to_string(maxErrors));
    refOpts.maxErrors = maxErrors;
    db::Design ref = freshTarget(tc);
    const ParseResult wantRes = reference::parseDef(text, ref, refOpts);
    const bool bailed = wantRes.diags.back().code == "GEN001";
    ASSERT_EQ(bailed, maxErrors <= total);
    if (bailed) bailCodes.insert(wantRes.diags[wantRes.diags.size() - 2].code);

    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      db::Design streamed = freshTarget(tc);
      IngestStats stats;
      const ParseResult res = lefdef::parseDefStream(
          text, streamed, tinyChunks(threads, /*recover=*/true, maxErrors),
          &stats);
      expectSameDiags(res.diags, wantRes.diags);
      EXPECT_EQ(db::designFingerprint(streamed), db::designFingerprint(ref));
      EXPECT_EQ(stats.legacyFallback, bailed);
      EXPECT_EQ(stats.components, ref.instances.size());
      EXPECT_EQ(stats.nets, ref.nets.size());
    }
  }
}

TEST(StreamEquivalence, MaxErrorsBailReproducesLegacyStateExactly) {
  // The GEN001 bail-out must land in the serial TRACKS preamble, inside
  // COMPONENTS chunks (several bad components per 2 KiB chunk), in the
  // serial PINS section and inside NETS chunks. smallCase has no IO pins,
  // so a variant with pins covers PINS and PIN terms.
  std::set<std::string> bailCodes;
  {
    SCOPED_TRACE("smallCase");
    const benchgen::Testcase tc = smallCase();
    sweepMaxErrors(
        tc, corruptDef(lefdef::writeDef(*tc.design), /*corruptTracks=*/false),
        bailCodes);
  }
  {
    SCOPED_TRACE("with IO pins");
    benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
    spec.numCells = 150;
    spec.numNets = 80;
    spec.numIoPins = 24;
    const benchgen::Testcase tc = benchgen::generate(spec, 1.0);
    ASSERT_EQ(tc.design->ioPins.size(), 24u);
    sweepMaxErrors(
        tc, corruptDef(lefdef::writeDef(*tc.design), /*corruptTracks=*/true),
        bailCodes);
  }
  // TRACKS (DEF001), COMPONENTS (DEF002), PINS (LEX003) and NETS
  // (DEF003/DEF004) errors each ended a parse.
  EXPECT_EQ(bailCodes, (std::set<std::string>{"DEF001", "DEF002", "DEF003",
                                              "DEF004", "LEX003"}));
}

TEST(StreamEquivalence, EntityRunningPastItsChunkMatchesSerialParse) {
  // A ';' the grammar takes as a keyword or a name makes an entity read on
  // into the next entity's bytes, past the chunk the scan cut for it; the
  // serial section loop must take over there. Planted: a component whose
  // '+' swallows its ';', a nameless component and net, and a last
  // component that runs into END COMPONENTS.
  const benchgen::Testcase tc = smallCase();
  std::string text = lefdef::writeDef(*tc.design);
  const auto plant = [&](std::size_t at, const std::string& edit) {
    ASSERT_NE(at, std::string::npos);
    text.insert(at, edit);
  };
  const auto lineAfter = [&](const std::string& key, int n) {
    std::size_t p = text.find(key);
    for (int i = 0; i < n && p != std::string::npos; ++i) {
      p = text.find('\n', p + 1);
    }
    return p == std::string::npos ? p : p + 1;
  };
  plant(text.find(" ;\nEND COMPONENTS"), " + ;\n - tail BUFX2");
  plant(lineAfter("\nNETS ", 4), " - ;\n");
  plant(lineAfter("\nCOMPONENTS ", 20), " - ;\n");
  const std::size_t comp = lineAfter("\nCOMPONENTS ", 10);
  plant(text.find(" + PLACED", comp), " + ;\n");

  for (const int threads : {1, 4}) {
    for (const std::size_t chunkBytes : {std::size_t{64}, std::size_t{2048}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " chunkBytes=" + std::to_string(chunkBytes));
      StreamOptions opts = tinyChunks(threads);
      opts.chunkBytes = chunkBytes;
      expectMatchesReference(tc, text, opts);
    }
  }
}

TEST(StreamEquivalence, StrictModeThrowsTheFileFirstError) {
  const benchgen::Testcase tc = smallCase();
  // No TRACKS corruption: the first error sits inside a COMPONENTS chunk,
  // so the lowest-failing-job rethrow is what is under test here.
  const std::string text =
      corruptDef(lefdef::writeDef(*tc.design), /*corruptTracks=*/false);

  const util::Diag want = referenceStrictError(tc, text);
  ASSERT_FALSE(want.code.empty()) << "reference parse should have thrown";

  for (const int threads : {1, 4, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    db::Design streamed = freshTarget(tc);
    try {
      lefdef::parseDefStream(text, streamed, tinyChunks(threads));
      FAIL() << "streamed parse should have thrown";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.diag.format(), want.format());
    }
    // A strict-mode throw commits nothing to the target design.
    EXPECT_TRUE(streamed.instances.empty());
    EXPECT_TRUE(streamed.nets.empty());
    EXPECT_TRUE(streamed.name.empty());
  }
  db::Design wrapped = freshTarget(tc);
  try {
    lefdef::parseDef(text, wrapped);
    FAIL() << "parseDef should have thrown";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diag.format(), want.format());
  }
  EXPECT_TRUE(wrapped.instances.empty());
}

// ------------------------------------------------ byte-level section cuts

std::string slurpCorpus(const std::string& name) {
  std::ifstream in(std::filesystem::path(PAO_FUZZ_CORPUS_DIR) / name,
                   std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// base.lef's technology and library, which the hand-written corpus DEFs
/// reference.
benchgen::Testcase corpusLibrary() {
  benchgen::Testcase tc;
  tc.tech = std::make_unique<db::Tech>();
  tc.lib = std::make_unique<db::Library>();
  lefdef::parseLef(slurpCorpus("base.lef"), *tc.tech, *tc.lib);
  return tc;
}

/// Corpus DEFs whose COMPONENTS/NETS bytes hold cut look-alikes: ';' then
/// '-' inside '#' comments and quoted strings (one string unterminated
/// across many candidate cuts, one running to the end of the file), an
/// END in a comment before an indented real one, a net named END,
/// duplicate component and IO pin names, CRLF line endings and tabs.
const std::vector<std::string>& cutCorpus() {
  static const std::vector<std::string> names = {
      "cuts_comments.def", "cuts_strings.def", "cuts_unterminated.def",
      "cuts_end.def", "cuts_crlf.def"};
  return names;
}

TEST(StreamEquivalence, CutLookAlikesMatchReferenceAtEveryChunkSize) {
  const benchgen::Testcase tc = corpusLibrary();
  std::vector<std::size_t> sizes;
  for (std::size_t b = 1; b <= 64; ++b) sizes.push_back(b);
  for (std::size_t b = 96; b <= 4096; b += b / 2) sizes.push_back(b);
  sizes.push_back(4096);
  for (const std::string& name : cutCorpus()) {
    SCOPED_TRACE(name);
    const std::string text = slurpCorpus(name);
    ASSERT_FALSE(text.empty());
    for (const int threads : {1, 2, 4}) {
      for (const std::size_t chunkBytes : sizes) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " chunkBytes=" + std::to_string(chunkBytes));
        StreamOptions opts = tinyChunks(threads);
        opts.chunkBytes = chunkBytes;
        expectMatchesReference(tc, text, opts);
        if (HasFailure()) return;
      }
    }
  }
}

TEST(StreamEquivalence, TruncatedCutInputsMatchReference) {
  // Every prefix at a fixed stride: the input ends inside entities,
  // comments and strings, and a section with no END leaves the parser on
  // the last chunk's last token, where the end-of-input diagnostic points.
  constexpr std::size_t kStride = 11;
  const benchgen::Testcase tc = corpusLibrary();
  for (const std::string& name : cutCorpus()) {
    SCOPED_TRACE(name);
    const std::string text = slurpCorpus(name);
    for (std::size_t cut = 0; cut <= text.size(); cut += kStride) {
      for (const int threads : {1, 4}) {
        for (const std::size_t chunkBytes : {std::size_t{1}, std::size_t{48}}) {
          SCOPED_TRACE("cut=" + std::to_string(cut) +
                       " threads=" + std::to_string(threads) +
                       " chunkBytes=" + std::to_string(chunkBytes));
          StreamOptions opts = tinyChunks(threads);
          opts.chunkBytes = chunkBytes;
          expectMatchesReference(tc, text.substr(0, cut), opts);
          if (HasFailure()) return;
        }
      }
    }
  }
}

TEST(StreamEquivalence, FirstIoPinAndLastComponentOfANameWin) {
  const benchgen::Testcase tc = corpusLibrary();
  db::Design d = freshTarget(tc);
  lefdef::parseDefStream(slurpCorpus("cuts_end.def"), d, tinyChunks(4));
  ASSERT_EQ(d.ioPins.size(), 3u);
  const int c3 = d.findInstance("c3");
  ASSERT_GE(c3, 0);
  EXPECT_EQ(d.instances[c3].origin, (geom::Point{9880, 3420}));
  bool sawIo = false;
  for (const db::Net& net : d.nets) {
    for (const db::NetTerm& t : net.terms) {
      if (t.isIo()) {
        EXPECT_NE(t.ioPinIdx, 2) << "io_0 must resolve to its first pin";
        sawIo = true;
      } else if (d.instances[t.instIdx].name == "c3") {
        EXPECT_EQ(t.instIdx, c3);
      }
    }
  }
  EXPECT_TRUE(sawIo);
}

TEST(StreamIngest, WellFormedSectionsNeedNoSerialTokenizing) {
  // The chunks cover COMPONENTS and NETS, and the last one stops at the
  // section's END: the serial section loop tokenizes no entity byte.
  benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
  spec.numCells = 400;
  spec.numNets = 300;
  spec.numIoPins = 16;
  const benchgen::Testcase tc = benchgen::generate(spec, 1.0);
  const std::string text = lefdef::writeDef(*tc.design);
  for (const int threads : {1, 2, 4}) {
    for (const std::size_t chunkBytes :
         {std::size_t{1}, std::size_t{2048}, std::size_t{1} << 20}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " chunkBytes=" + std::to_string(chunkBytes));
      StreamOptions opts = tinyChunks(threads);
      opts.chunkBytes = chunkBytes;
      db::Design d = freshTarget(tc);
      IngestStats stats;
      ASSERT_TRUE(lefdef::parseDefStream(text, d, opts, &stats).ok());
      EXPECT_EQ(stats.serialBytes, 0u);
      EXPECT_GE(stats.chunks, 2u);
      EXPECT_EQ(d.nets.size(), tc.design->nets.size());
    }
  }
  // A cut whose ';' sits in a comment hands the rest of its section to the
  // serial loop, which the count shows.
  const benchgen::Testcase lib = corpusLibrary();
  db::Design d = freshTarget(lib);
  IngestStats stats;
  StreamOptions opts = tinyChunks(2);
  opts.chunkBytes = 1;
  lefdef::parseDefStream(slurpCorpus("cuts_comments.def"), d, opts, &stats);
  EXPECT_GT(stats.serialBytes, 0u);
}

// ------------------------------------------------------- file-backed forms

class StreamFileTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultRegistry::instance().reset(); }
  void TearDown() override { util::FaultRegistry::instance().reset(); }

  static std::string writeTemp(const std::string& name,
                               const std::string& text) {
    const std::string path = ::testing::TempDir() + name;
    std::ofstream f(path, std::ios::binary);
    f << text;
    return path;
  }
};

TEST_F(StreamFileTest, FileParseMatchesInMemoryParse) {
  const benchgen::Testcase tc = smallCase();
  const std::string defPath =
      writeTemp("stream_ok.def", lefdef::writeDef(*tc.design));
  const std::string lefPath =
      writeTemp("stream_ok.lef", lefdef::writeLef(*tc.tech, *tc.lib));

  db::Tech tech;
  db::Library lib;
  IngestStats lefStats;
  EXPECT_TRUE(
      lefdef::parseLefFile(lefPath, tech, lib, ParseOptions{}, &lefStats)
          .ok());
  EXPECT_EQ(tech.layers().size(), tc.tech->layers().size());
  EXPECT_EQ(lib.masters().size(), tc.lib->masters().size());
  EXPECT_GT(lefStats.bytes, 0u);

  db::Design fromFile;
  fromFile.tech = &tech;
  fromFile.lib = &lib;
  IngestStats stats;
  EXPECT_TRUE(
      lefdef::parseDefFile(defPath, fromFile, tinyChunks(4), &stats).ok());
  EXPECT_GT(stats.parseSeconds, 0.0);
  EXPECT_EQ(stats.bytes, std::filesystem::file_size(defPath));

  db::Design inMemory = freshTarget(tc);
  reference::parseDef(lefdef::writeDef(*tc.design), inMemory);
  EXPECT_EQ(db::designFingerprint(fromFile), db::designFingerprint(inMemory));
}

TEST_F(StreamFileTest, IoFaultPointsFireOnTheStreamingPath) {
  const benchgen::Testcase tc = smallCase();
  const std::string defPath =
      writeTemp("stream_fault.def", lefdef::writeDef(*tc.design));
  const std::string lefPath =
      writeTemp("stream_fault.lef", lefdef::writeLef(*tc.tech, *tc.lib));

  ASSERT_TRUE(util::FaultRegistry::instance().configure("def.io"));
  db::Design design = freshTarget(tc);
  EXPECT_THROW(lefdef::parseDefFile(defPath, design, tinyChunks(1)),
               util::FaultInjected);

  ASSERT_TRUE(util::FaultRegistry::instance().configure("lef.io"));
  db::Tech tech;
  db::Library lib;
  EXPECT_THROW(lefdef::parseLefFile(lefPath, tech, lib, ParseOptions{}),
               util::FaultInjected);
}

TEST_F(StreamFileTest, MissingFileThrowsLocatedIoDiag) {
  db::Design design;
  try {
    lefdef::parseDefFile("/nonexistent/no_such.def", design, tinyChunks(1));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diag.code, "IO001");
    EXPECT_EQ(e.diag.loc.file, "/nonexistent/no_such.def");
  }
}

// ------------------------------------------- sharded unique-inst extraction

TEST(ShardedUnique, AnyThreadCountMatchesSerialExtraction) {
  // Large enough for several ~1k-instance shards, so the merge runs.
  const benchgen::Testcase tc =
      benchgen::generate(benchgen::ispd18Suite()[1], /*scale=*/0.1);
  ASSERT_GT(tc.design->instances.size(), 3000u);
  const db::UniqueInstances serial =
      reference::extractUniqueInstances(*tc.design);
  for (const int threads : {1, 2, 3, 4, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const db::UniqueInstances sharded =
        db::UniqueInstanceIndex(*tc.design, threads).classes();
    EXPECT_EQ(sharded.classOf, serial.classOf);
    ASSERT_EQ(sharded.classes.size(), serial.classes.size());
    for (std::size_t c = 0; c < serial.classes.size(); ++c) {
      SCOPED_TRACE("class " + std::to_string(c));
      EXPECT_EQ(sharded.classes[c].master, serial.classes[c].master);
      EXPECT_EQ(sharded.classes[c].orient, serial.classes[c].orient);
      EXPECT_EQ(sharded.classes[c].offsets, serial.classes[c].offsets);
      EXPECT_EQ(sharded.classes[c].representative,
                serial.classes[c].representative);
      EXPECT_EQ(sharded.classes[c].members, serial.classes[c].members);
    }
  }
}

TEST(ShardedUnique, OracleResultIdenticalOnStreamedDesign) {
  // End to end on the new front end: stream-parse a generated case, then
  // check the oracle (whose session index builds its classes sharded)
  // produces byte-identical access at different thread counts.
  const benchgen::Testcase tc = smallCase();
  const std::string text = lefdef::writeDef(*tc.design);
  db::Design design = freshTarget(tc);
  ASSERT_TRUE(
      lefdef::parseDefStream(text, design, tinyChunks(/*threads=*/0)).ok());

  const auto runWith = [&](int threads) {
    core::OracleConfig cfg = core::withBcaConfig();
    cfg.numThreads = threads;
    return core::PinAccessOracle(design, cfg).run();
  };
  const core::OracleResult base = runWith(1);
  for (const int threads : {2, 4, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const core::OracleResult res = runWith(threads);
    EXPECT_EQ(res.unique.classOf, base.unique.classOf);
    EXPECT_EQ(res.chosenPattern, base.chosenPattern);
    ASSERT_EQ(res.classes.size(), base.classes.size());
    for (std::size_t c = 0; c < base.classes.size(); ++c) {
      EXPECT_EQ(res.classes[c].pinOrder, base.classes[c].pinOrder);
      ASSERT_EQ(res.classes[c].patterns.size(),
                base.classes[c].patterns.size());
      for (std::size_t p = 0; p < base.classes[c].patterns.size(); ++p) {
        EXPECT_EQ(res.classes[c].patterns[p].apIdx,
                  base.classes[c].patterns[p].apIdx);
      }
    }
  }
}

TEST(ShardedUnique, IncrementalSessionStaysEquivalentOnStreamedDesign) {
  const benchgen::Testcase tc = smallCase();
  const std::string text = lefdef::writeDef(*tc.design);
  db::Design design = freshTarget(tc);
  ASSERT_TRUE(
      lefdef::parseDefStream(text, design, tinyChunks(/*threads=*/4)).ok());

  core::OracleConfig cfg = core::withBcaConfig();
  cfg.numThreads = 4;
  core::OracleSession session(design, cfg);

  // Class indices are NOT compared: the session keeps them stable across
  // mutations (empty classes persist) while a fresh batch renumbers, so
  // equivalence is judged on per-instance access, which is index-free.
  const auto expectMatchesBatch = [&]() {
    core::PinAccessOracle fresh(design, cfg);
    const core::OracleResult batch = fresh.run();
    EXPECT_EQ(batch.chosenPattern, session.chosenPattern());
    const core::OracleResult snap = session.snapshot();
    for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
      const int cls = batch.unique.classOf[i];
      if (cls < 0 || batch.classes[cls].pinAps.empty()) continue;
      const int numPins = static_cast<int>(batch.classes[cls].pinAps.size());
      for (int p = 0; p < numPins; ++p) {
        const auto apA = batch.chosenAp(design, i, p);
        const auto apB = snap.chosenAp(design, i, p);
        ASSERT_EQ(apA.has_value(), apB.has_value())
            << "inst " << i << " pin " << p;
        if (apA) {
          EXPECT_EQ(apA->loc, apB->loc) << "inst " << i << " pin " << p;
        }
      }
    }
  };
  expectMatchesBatch();

  // One of each mutation kind, checked against a fresh batch run each time
  // (the batch run itself goes through the sharded extraction too).
  session.moveInstance(0, geom::Point{design.rows[1].origin.x,
                                      design.rows[1].origin.y});
  expectMatchesBatch();

  db::Instance clone = design.instances[2];
  clone.name = "streamed_clone";
  clone.origin = design.rows[0].origin;
  session.addInstance(clone);
  expectMatchesBatch();

  session.removeInstance(1);
  expectMatchesBatch();
}

}  // namespace
}  // namespace pao
