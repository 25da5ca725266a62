// Table I reproduction: testcase information for the synthetic ISPD-2018
// analogues. Prints the paper's published statistics next to the generated
// (scaled) instantiation.
#include <cstdio>

#include "bench_common.hpp"
#include "benchgen/testcase.hpp"
#include "db/unique_inst.hpp"

int main() {
  using namespace pao;
  const double scale = bench::benchScale();
  bench::BenchReport report("bench_table1_testcases");
  obs::Json rows = obs::Json::array();

  std::printf("Table I — testcase information (paper spec vs generated at "
              "scale %.3g)\n",
              scale);
  std::printf("%-14s %10s %7s %9s %7s %7s %14s %6s | %10s %9s %8s\n",
              "Benchmark", "#StdCell", "#Macro", "#Net", "#IOPin", "#Layer",
              "DieSize(mm)", "Tech", "gen#Cell", "gen#Net", "gen#Uniq");
  bench::printRule(124);

  for (std::size_t i = 0; i < benchgen::ispd18Suite().size(); ++i) {
    if (!bench::testcaseSelected(static_cast<int>(i))) continue;
    const benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[i];
    const benchgen::Testcase tc = benchgen::generate(spec, scale);
    std::size_t stdCells = 0;
    int macros = 0;
    for (const db::Instance& inst : tc.design->instances) {
      if (inst.master->cls == db::MasterClass::kBlock) {
        ++macros;
      } else if (inst.master->cls == db::MasterClass::kCore) {
        ++stdCells;
      }
    }
    const auto unique = db::UniqueInstanceIndex(*tc.design, 1).classes();
    char die[32];
    std::snprintf(die, sizeof(die), "%.2fx%.2f", spec.paperDieWmm,
                  spec.paperDieHmm);
    std::printf("%-14s %10zu %7d %9zu %7d %7d %14s %5dnm | %10zu %9zu %8zu\n",
                spec.name.c_str(), spec.numCells, spec.numMacros,
                spec.numNets, spec.numIoPins, tc.tech->numRoutingLayers(),
                die, spec.node == benchgen::Node::k45 ? 45 : 32, stdCells,
                tc.design->nets.size(), unique.classes.size());
    rows.push(obs::Json::object()
                  .set("benchmark", obs::Json(spec.name))
                  .set("genCells", obs::Json(stdCells))
                  .set("genNets", obs::Json(tc.design->nets.size()))
                  .set("genUnique", obs::Json(unique.classes.size())));
  }
  report.bench().set("rows", std::move(rows));
  return report.write() ? 0 : 1;
}
