// LEF/DEF I/O example: write a generated testcase to LEF/DEF text, parse it
// back, and run pin access analysis on the parsed copy — the path an
// external design would take into the library.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "benchgen/testcase.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/lef_writer.hpp"
#include "lefdef/stream.hpp"
#include "pao/evaluate.hpp"
#include "pao/oracle.hpp"

int main(int argc, char** argv) {
  using namespace pao;

  // With arguments: read the given LEF and DEF files. Without: synthesize a
  // small testcase and round-trip it through text.
  std::string lefText;
  std::string defText;
  if (argc == 3) {
    std::ifstream lef(argv[1]);
    std::ifstream def(argv[2]);
    if (!lef || !def) {
      std::printf("usage: %s [design.lef design.def]\n", argv[0]);
      return 1;
    }
    std::stringstream ls, ds;
    ls << lef.rdbuf();
    ds << def.rdbuf();
    lefText = ls.str();
    defText = ds.str();
  } else {
    benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
    spec.numCells = 200;
    spec.numNets = 100;
    const benchgen::Testcase tc = benchgen::generate(spec, 1.0);
    lefText = lefdef::writeLef(*tc.tech, *tc.lib);
    defText = lefdef::writeDef(*tc.design);
    std::printf("synthesized %zu-instance testcase -> %zu bytes LEF, %zu "
                "bytes DEF\n",
                tc.design->instances.size(), lefText.size(), defText.size());
  }

  db::Tech tech;
  db::Library lib;
  lefdef::parseLef(lefText, tech, lib);
  std::printf("parsed LEF: %zu layers, %zu via defs, %zu masters\n",
              tech.layers().size(), tech.viaDefs().size(),
              lib.masters().size());

  db::Design design;
  design.tech = &tech;
  design.lib = &lib;
  lefdef::parseDef(defText, design);
  std::printf("parsed DEF: '%s', %zu instances, %zu nets, %zu track "
              "patterns\n",
              design.name.c_str(), design.instances.size(),
              design.nets.size(), design.trackPatterns.size());

  core::PinAccessOracle oracle(design, core::withBcaConfig());
  const core::OracleResult result = oracle.run();
  const core::DirtyApStats dirty = core::countDirtyAps(design, result);
  const core::FailedPinStats failed = core::countFailedPins(design, result);
  std::printf("pin access on parsed design: %zu unique insts, %zu APs "
              "(%zu dirty), %zu/%zu failed pins\n",
              result.unique.classes.size(), dirty.totalAps, dirty.dirtyAps,
              failed.failedPins, failed.totalPins);
  return 0;
}
