// pao_fuzz — deterministic mutation fuzzer for the LEF/DEF parsers and the
// access-cache reader.
//
//   pao_fuzz <lef|def|cache|stream|all> <corpus-dir> <iterations> [seed]
//
// Each iteration picks a corpus file of the target kind, applies 1-4 seeded
// mutations (truncation, span deletion/duplication, byte flips, dictionary
// token insertion, digit scrambling, cross-file splicing), and checks the
// robustness contract:
//   * recovery-mode parsing (ParseOptions::recover) must never throw — it
//     accumulates diagnostics and returns whatever parsed;
//   * strict-mode parsing may throw lefdef::ParseError and nothing else;
//   * AccessCache::load never throws: it merges entries or rejects the file
//     with a reason;
//   * the `stream` target is differential: parseDefStream with a small
//     randomized chunk size (so mutations land mid-chunk and truncations
//     cut entities at chunk edges) must match the frozen single-pass
//     reference parser (tests/reference_lefdef.cpp) on every mutated
//     input — same design fingerprint, same diagnostics in recovery mode,
//     and the same first ParseError in strict mode.
// Any crash, unexpected exception type, or sanitizer trap is a finding.
// Everything is a pure function of (corpus, iterations, seed), so a failing
// run is reproduced by re-running with the same arguments; the iteration
// number of the first violation is printed.
//
// Exit codes: 0 all iterations clean, 1 contract violation, 2 usage/corpus
// error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "db/design.hpp"
#include "db/fingerprint.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/stream.hpp"
#include "pao/access_cache.hpp"
#include "reference.hpp"

namespace fs = std::filesystem;

namespace {

using namespace pao;

struct Rng {
  std::uint64_t state;
  /// splitmix64: tiny, well-distributed, and identical everywhere.
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
  }
};

/// Tokens likely to reach interesting parser states when spliced in.
constexpr const char* kDictionary[] = {
    ";",        "END",      "MACRO",   "PIN",        "LAYER",     "VIA",
    "UNITS",    "DO",       "BY",      "STEP",       "COMPONENTS", "PINS",
    "NETS",     "TRACKS",   "ROW",     "DIEAREA",    "-",          "+",
    "(",        ")",        "PLACED",  "RECT",       "PORT",       "ENTRY",
    "PATTERNS", "PATTERN",  "ORDER",   "AP",         "FINGERPRINT",
    "PAO_ACCESS_CACHE",     "v1",      "v2",         "9999999999999999999",
    "-1",       "1e309",    "0.5",     "nan",        "\"",         "#",
};

std::string mutate(const std::string& base,
                   const std::vector<std::string>& corpus, Rng& rng) {
  std::string s = base;
  const std::size_t ops = 1 + rng.below(4);
  for (std::size_t o = 0; o < ops; ++o) {
    if (s.empty()) s = " ";
    switch (rng.next() % 7) {
      case 0:  // truncate
        s.resize(rng.below(s.size() + 1));
        break;
      case 1: {  // delete a span
        const std::size_t at = rng.below(s.size());
        s.erase(at, 1 + rng.below(64));
        break;
      }
      case 2: {  // duplicate a span
        const std::size_t at = rng.below(s.size());
        const std::size_t len =
            std::min<std::size_t>(1 + rng.below(64), s.size() - at);
        s.insert(at, s.substr(at, len));
        break;
      }
      case 3: {  // flip a byte
        const std::size_t at = rng.below(s.size());
        s[at] = static_cast<char>(s[at] ^ (1 + (rng.next() % 255)));
        break;
      }
      case 4: {  // insert a dictionary token
        const std::size_t n = sizeof(kDictionary) / sizeof(kDictionary[0]);
        const std::string tok =
            std::string(" ") + kDictionary[rng.below(n)] + " ";
        s.insert(rng.below(s.size() + 1), tok);
        break;
      }
      case 5: {  // scramble a digit (counts, coordinates)
        for (std::size_t tries = 0; tries < 32; ++tries) {
          const std::size_t at = rng.below(s.size());
          if (s[at] >= '0' && s[at] <= '9') {
            s[at] = static_cast<char>('0' + rng.below(10));
            break;
          }
        }
        break;
      }
      default: {  // splice: our prefix + another corpus file's suffix
        const std::string& other = corpus[rng.below(corpus.size())];
        const std::size_t cut = rng.below(s.size() + 1);
        const std::size_t from = rng.below(other.size() + 1);
        s = s.substr(0, cut) + other.substr(from);
        break;
      }
    }
  }
  return s;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> corpusOf(const fs::path& dir,
                                  std::string_view extension) {
  std::vector<fs::path> paths;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == extension) {
      paths.push_back(e.path());
    }
  }
  std::sort(paths.begin(), paths.end());  // determinism across filesystems
  std::vector<std::string> out;
  for (const fs::path& p : paths) out.push_back(slurp(p));
  return out;
}

struct Violation {
  bool failed = false;
  std::string what;
};

/// Runs `body` expecting no exception of any kind.
template <typename Body>
Violation expectNoThrow(const char* what, Body&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    return {true, std::string(what) + " threw: " + e.what()};
  } catch (...) {
    return {true, std::string(what) + " threw a non-std exception"};
  }
  return {};
}

/// Runs `body` expecting either success or lefdef::ParseError.
template <typename Body>
Violation expectParseErrorOnly(const char* what, Body&& body) {
  try {
    body();
  } catch (const lefdef::ParseError&) {
    // expected failure mode
  } catch (const std::exception& e) {
    return {true,
            std::string(what) + " threw a non-ParseError: " + e.what()};
  } catch (...) {
    return {true, std::string(what) + " threw a non-std exception"};
  }
  return {};
}

Violation fuzzLefOnce(const std::string& input) {
  {
    db::Tech tech;
    db::Library lib;
    lefdef::ParseOptions opts;
    opts.file = "<fuzz>";
    opts.recover = true;
    const Violation v = expectNoThrow("recovery parseLef", [&] {
      (void)lefdef::parseLef(input, tech, lib, opts);
    });
    if (v.failed) return v;
  }
  db::Tech tech;
  db::Library lib;
  return expectParseErrorOnly(
      "strict parseLef", [&] { lefdef::parseLef(input, tech, lib); });
}

Violation fuzzDefOnce(const std::string& input, const db::Tech& tech,
                      const db::Library& lib) {
  {
    db::Design design;
    design.tech = &tech;
    design.lib = &lib;
    lefdef::ParseOptions opts;
    opts.file = "<fuzz>";
    opts.recover = true;
    const Violation v = expectNoThrow("recovery parseDef", [&] {
      (void)lefdef::parseDef(input, design, opts);
    });
    if (v.failed) return v;
  }
  db::Design design;
  design.tech = &tech;
  design.lib = &lib;
  return expectParseErrorOnly("strict parseDef",
                              [&] { lefdef::parseDef(input, design); });
}

/// Differential check: the chunked streaming parser must be observably
/// identical to the reference parser on arbitrary mutated input (DESIGN.md
/// "Streaming ingest & scale"). On a strict-mode throw the reference
/// leaves a partial parse in its target and parseDefStream leaves its
/// target untouched; only the thrown errors are compared then.
Violation fuzzStreamOnce(const std::string& input, const db::Tech& tech,
                         const db::Library& lib, Rng& rng) {
  lefdef::StreamOptions so;
  so.parse.file = "<fuzz>";
  so.numThreads = 1 + static_cast<int>(rng.below(3));
  so.chunkBytes = 64 + rng.below(4096);

  // Recovery mode: neither parser may throw, and they must agree on the
  // parsed design and the full diagnostic stream.
  {
    lefdef::ParseOptions opts = so.parse;
    opts.recover = true;
    db::Design ref;
    ref.tech = &tech;
    ref.lib = &lib;
    lefdef::ParseResult lr;
    Violation v = expectNoThrow("recovery reference::parseDef", [&] {
      lr = reference::parseDef(input, ref, opts);
    });
    if (v.failed) return v;
    db::Design streamed;
    streamed.tech = &tech;
    streamed.lib = &lib;
    lefdef::StreamOptions ropts = so;
    ropts.parse.recover = true;
    lefdef::ParseResult sr;
    v = expectNoThrow("recovery parseDefStream", [&] {
      sr = lefdef::parseDefStream(input, streamed, ropts);
    });
    if (v.failed) return v;
    if (db::designFingerprint(ref) != db::designFingerprint(streamed)) {
      return {true, "recovery streamed design diverged from reference"};
    }
    if (lr.diags.size() != sr.diags.size()) {
      return {true, "recovery streamed diag count " +
                        std::to_string(sr.diags.size()) + " != reference " +
                        std::to_string(lr.diags.size())};
    }
    for (std::size_t i = 0; i < lr.diags.size(); ++i) {
      if (lr.diags[i].format() != sr.diags[i].format()) {
        return {true, "recovery diag " + std::to_string(i) +
                          " diverged: " + sr.diags[i].format() + " vs " +
                          lr.diags[i].format()};
      }
    }
  }

  // Strict mode: same outcome — both succeed with identical designs, or
  // both throw ParseError carrying the file's first error.
  std::string refErr;
  std::string streamErr;
  bool refThrew = false;
  bool streamThrew = false;
  db::Design ref;
  ref.tech = &tech;
  ref.lib = &lib;
  try {
    reference::parseDef(input, ref, so.parse);
  } catch (const lefdef::ParseError& e) {
    refThrew = true;
    refErr = e.diag.format();
  } catch (const std::exception& e) {
    return {true,
            std::string("strict reference::parseDef threw a non-ParseError: ") +
                e.what()};
  }
  db::Design streamed;
  streamed.tech = &tech;
  streamed.lib = &lib;
  try {
    lefdef::parseDefStream(input, streamed, so);
  } catch (const lefdef::ParseError& e) {
    streamThrew = true;
    streamErr = e.diag.format();
  } catch (const std::exception& e) {
    return {true,
            std::string("strict parseDefStream threw a non-ParseError: ") +
                e.what()};
  }
  if (refThrew != streamThrew) {
    return {true, std::string("strict outcome diverged: reference ") +
                      (refThrew ? "threw" : "succeeded") +
                      ", streamed " + (streamThrew ? "threw" : "succeeded")};
  }
  if (refThrew && refErr != streamErr) {
    return {true,
            "strict first error diverged: " + streamErr + " vs " + refErr};
  }
  if (!refThrew &&
      db::designFingerprint(ref) != db::designFingerprint(streamed)) {
    return {true, "strict streamed design diverged from reference"};
  }
  return {};
}

Violation fuzzCacheOnce(const std::string& input, const db::Tech& tech,
                        const db::Library& lib) {
  return expectNoThrow("AccessCache::load", [&] {
    core::AccessCache cache;
    std::string error;
    (void)cache.load(input, tech, lib, &error);
  });
}

int usage() {
  std::fprintf(stderr,
               "usage: pao_fuzz <lef|def|cache|stream|all> <corpus-dir> "
               "<iterations> [seed]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string kind = argv[1];
  const fs::path dir = argv[2];
  const long iterations = std::atol(argv[3]);
  const std::uint64_t seed =
      argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 1;
  if (iterations <= 0 ||
      (kind != "lef" && kind != "def" && kind != "cache" &&
       kind != "stream" && kind != "all")) {
    return usage();
  }
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "pao_fuzz: no such corpus dir: %s\n",
                 dir.string().c_str());
    return 2;
  }

  // The targets in `all`'s rotation order; a single-target run draws none.
  static constexpr const char* kTargets[] = {"lef", "def", "stream", "cache"};
  const bool all = kind == "all";
  const bool doLef = kind == "lef" || all;
  const bool doDef = kind == "def" || all;
  const bool doCache = kind == "cache" || all;
  const bool doStream = kind == "stream" || all;
  const std::vector<std::string> lefs = corpusOf(dir, ".lef");
  const std::vector<std::string> defs = corpusOf(dir, ".def");
  const std::vector<std::string> caches = corpusOf(dir, ".cache");
  if ((doLef && lefs.empty()) || (doDef && (defs.empty() || lefs.empty())) ||
      (doCache && (caches.empty() || lefs.empty())) ||
      (doStream && (defs.empty() || lefs.empty()))) {
    std::fprintf(stderr,
                 "pao_fuzz: corpus needs .lef seeds (plus .def/.cache for "
                 "those modes)\n");
    return 2;
  }

  // DEF and cache inputs are interpreted against a fixed tech/library: the
  // first (unmutated) corpus LEF.
  db::Tech tech;
  db::Library lib;
  lefdef::parseLef(lefs.front(), tech, lib);

  Rng rng{seed * 0x9E3779B97F4A7C15ULL + 1};
  for (long i = 0; i < iterations; ++i) {
    Violation v;
    std::string input;
    const std::string_view target =
        all ? kTargets[rng.next() % 4] : std::string_view(kind);
    if (target == "lef") {
      input = mutate(lefs[rng.below(lefs.size())], lefs, rng);
      v = fuzzLefOnce(input);
    } else if (target == "def") {
      input = mutate(defs[rng.below(defs.size())], defs, rng);
      v = fuzzDefOnce(input, tech, lib);
    } else if (target == "stream") {
      input = mutate(defs[rng.below(defs.size())], defs, rng);
      v = fuzzStreamOnce(input, tech, lib, rng);
    } else {
      input = mutate(caches[rng.below(caches.size())], caches, rng);
      v = fuzzCacheOnce(input, tech, lib);
    }
    if (v.failed) {
      std::fprintf(stderr, "pao_fuzz: iteration %ld (seed %llu): %s\n", i,
                   static_cast<unsigned long long>(seed), v.what.c_str());
      std::ofstream dump("pao_fuzz_failure.txt", std::ios::binary);
      dump << input;
      std::fprintf(stderr, "pao_fuzz: failing input written to "
                           "pao_fuzz_failure.txt\n");
      return 1;
    }
  }
  std::fprintf(stderr, "pao_fuzz: %ld iteration(s) clean (%s, seed %llu)\n",
               iterations, kind.c_str(),
               static_cast<unsigned long long>(seed));
  return 0;
}
