// Figure-8-style snapshot: route a small design with two different access
// sources, then render the SAME window of the layout to SVG for both — the
// visual pin-access comparison of the paper's Experiment 3 (dashed red
// boxes mark DRC violations).
//
//   $ ./examples/access_snapshot [out-prefix]
//   -> <out-prefix>_greedy.svg, <out-prefix>_paaf.svg
#include <cstdio>
#include <fstream>

#include "benchgen/testcase.hpp"
#include "pao/evaluate.hpp"
#include "router/router.hpp"
#include "viz/svg.hpp"

int main(int argc, char** argv) {
  using namespace pao;
  const std::string prefix = argc > 1 ? argv[1] : "access_snapshot";

  benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[4];  // 32nm
  spec.numCells = 250;
  spec.numNets = 130;
  spec.numIoPins = 24;     // the spec default (1211) would swamp 130 nets
  spec.utilization = 0.6;  // headroom for the simple router
  const benchgen::Testcase tc = benchgen::generate(spec, 1.0);

  const auto snapshot = [&](router::AccessMode mode,
                            const std::string& path) {
    core::PinAccessOracle oracle(*tc.design, core::withBcaConfig());
    const core::OracleResult res = oracle.run();
    router::AccessSource access(*tc.design, res.view(), mode);
    router::RouterConfig rc;
    rc.ripupPasses = mode == router::AccessMode::kPattern ? 5 : 0;
    router::DetailedRouter rtr(*tc.design, access, rc);
    const router::RouteResult rr = rtr.run();

    std::vector<viz::VizShape> shapes;
    for (const router::RouteShape& s : rr.shapes) {
      viz::VizShape v;
      v.rect = s.rect;
      v.layer = s.layer;
      v.kind = s.isAccess ? viz::VizShape::Kind::kAccessVia
                          : (s.isVia ? viz::VizShape::Kind::kVia
                                     : viz::VizShape::Kind::kWire);
      shapes.push_back(v);
    }

    // Window: around the first violation if any, else the die center.
    geom::Rect window = tc.design->dieArea;
    const geom::Coord span = 12000;
    geom::Point center = window.center();
    if (!rr.violations.empty()) center = rr.violations.front().bbox.center();
    window = geom::Rect(center.x - span, center.y - span, center.x + span,
                        center.y + span)
                 .intersect(tc.design->dieArea);

    viz::SvgOptions opt;
    opt.scale = 0.04;
    opt.maxLayer = tc.tech->findLayer("M4")->index;
    std::ofstream out(path);
    out << viz::renderRegion(*tc.design, window, shapes, rr.violations, opt);
    std::printf("%-22s DRCs=%zu (access %zu) -> %s\n",
                mode == router::AccessMode::kPattern ? "PAAF" : "greedy",
                rr.violations.size(), rr.accessViolations, path.c_str());
  };

  snapshot(router::AccessMode::kGreedyNearest, prefix + "_greedy.svg");
  snapshot(router::AccessMode::kPattern, prefix + "_paaf.svg");
  return 0;
}
