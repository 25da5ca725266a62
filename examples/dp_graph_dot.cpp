// Figure 5/6 companion: prints the Step-2 dynamic-programming graph of one
// unique instance as Graphviz DOT — access point vertices labeled {m,n}
// (pin index, access point index, Fig. 6's notation), grouped by the pin
// ordering of Fig. 5, with complete bipartite edges between neighboring
// groups and virtual source/sink vertices.
//
//   $ ./examples/dp_graph_dot | dot -Tsvg > dp_graph.svg
#include <cstdio>

#include "benchgen/testcase.hpp"
#include "pao/ap_gen.hpp"
#include "pao/pattern_gen.hpp"

int main() {
  using namespace pao;

  benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
  spec.numCells = 60;
  spec.numNets = 30;
  const benchgen::Testcase tc = benchgen::generate(spec, 1.0);
  const db::UniqueInstances unique =
      db::UniqueInstanceIndex(*tc.design, 1).classes();

  // Pick a class with at least 3 pins so the graph looks like Fig. 6.
  int chosen = -1;
  for (int c = 0; c < static_cast<int>(unique.classes.size()); ++c) {
    if (unique.classes[c].master->signalPinIndices().size() >= 3) {
      chosen = c;
      break;
    }
  }
  if (chosen < 0) {
    std::fprintf(stderr, "no multi-pin class found\n");
    return 1;
  }
  const db::UniqueInstance& ui = unique.classes[chosen];
  const core::InstContext ctx(*tc.design, ui);
  const auto aps = core::AccessPointGenerator(ctx).generateAll();
  core::PatternGenerator gen(ctx, aps);
  const std::vector<int>& order = gen.pinOrder();

  std::printf("// DP graph for unique instance of %s (%s)\n",
              ui.master->name.c_str(),
              std::string(geom::toString(ui.orient)).c_str());
  std::printf("digraph dp {\n  rankdir=LR;\n  node [shape=circle];\n");
  std::printf("  S [label=\"start\", shape=doublecircle];\n");
  std::printf("  T [label=\"end\", shape=doublecircle];\n");

  for (std::size_t m = 0; m < order.size(); ++m) {
    const int pin = order[m];
    const int masterPin = ui.master->signalPinIndices()[pin];
    std::printf("  subgraph cluster_%zu {\n    label=\"pin %s\";\n", m,
                ui.master->pins[masterPin].name.c_str());
    for (std::size_t n = 0; n < aps[pin].size(); ++n) {
      std::printf("    p%zu_%zu [label=\"{%zu,%zu}\"];\n", m, n, m + 1,
                  n + 1);
    }
    std::printf("  }\n");
  }

  // Virtual source/sink plus complete bipartite edges between neighbors.
  for (std::size_t n = 0; n < aps[order.front()].size(); ++n) {
    std::printf("  S -> p0_%zu;\n", n);
  }
  for (std::size_t m = 0; m + 1 < order.size(); ++m) {
    for (std::size_t a = 0; a < aps[order[m]].size(); ++a) {
      for (std::size_t b = 0; b < aps[order[m + 1]].size(); ++b) {
        std::printf("  p%zu_%zu -> p%zu_%zu;\n", m, a, m + 1, b);
      }
    }
  }
  const std::size_t last = order.size() - 1;
  for (std::size_t n = 0; n < aps[order.back()].size(); ++n) {
    std::printf("  p%zu_%zu -> T;\n", last, n);
  }
  std::printf("}\n");
  return 0;
}
