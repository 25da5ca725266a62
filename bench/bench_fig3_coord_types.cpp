// Figure 3 reproduction: the four y-coordinate types overlaid with the
// same-layer up-via enclosure. In the paper's panels, (a) on-track and
// (b) half-track placements cause minimum-step DRCs because the enclosure
// clips the pin corner, while (c) shape-center and (d) enclosure-boundary
// placements are DRC-clean. Each panel below recreates the geometry on the
// tiny two-layer technology (tracks at 200+k*400, enclosure 300x120,
// min step 120) and reports the DRC engine's verdict.
#include <cstdio>

#include "bench_common.hpp"
#include "db/unique_inst.hpp"
#include "pao/ap_gen.hpp"
#include "pao/inst_context.hpp"
#include "../tests/test_util.hpp"

int main() {
  using namespace pao;
  using geom::Rect;
  bench::BenchReport report("bench_fig3_coord_types");
  obs::Json rows = obs::Json::array();

  struct Panel {
    const char* label;
    Rect pin;            // M1 pin shape
    geom::Point via;     // candidate via location
    bool expectClean;
  };
  // Via x = 600 (on-track) makes the enclosure [450,750] clip the pin's
  // right end at x=700 — combined with the y-type's vertical clip this
  // creates consecutive sub-minStep edges. Via x = 400 (half-track) keeps
  // the enclosure inside the pin horizontally.
  const Panel panels[] = {
      {"(a) on-track      y=600", {100, 560, 700, 700}, {600, 600}, false},
      {"(b) half-track    y=800", {100, 760, 700, 900}, {600, 800}, false},
      {"(c) shape-center  y=700", {100, 640, 700, 760}, {400, 700}, true},
      {"(d) enc-boundary  y=680", {100, 620, 700, 800}, {400, 680}, true},
  };

  std::printf("Figure 3 — coordinate types vs min-step DRC\n");
  bool allMatch = true;
  for (const Panel& p : panels) {
    const test::TinyDesign td = test::makeTinyDesign({{0, p.pin}});
    const db::UniqueInstances ui =
        db::UniqueInstanceIndex(*td.design, 1).classes();
    const core::InstContext ctx(*td.design, ui.classes[0]);
    const db::ViaDef* via = td.tech->findViaDef("V1_0");
    const auto violations =
        ctx.engine().checkVia(*via, p.via, ctx.pinNet(ctx.signalPins()[0]));
    const bool clean = violations.empty();
    std::printf("  %s : %-5s (expected %-5s)%s\n", p.label,
                clean ? "clean" : "DIRTY", p.expectClean ? "clean" : "DIRTY",
                clean == p.expectClean ? "" : "  << MISMATCH");
    for (const auto& v : violations) {
      std::printf("      %s\n", v.describe().c_str());
    }
    allMatch = allMatch && clean == p.expectClean;
    rows.push(obs::Json::object()
                  .set("panel", obs::Json(p.label))
                  .set("clean", obs::Json(clean))
                  .set("expectedClean", obs::Json(p.expectClean))
                  .set("violations", obs::Json(violations.size())));
  }

  // And the generator view: on the panel-(d) pin, the coordinate-type
  // ladder must fall through to off-track types automatically.
  {
    const test::TinyDesign td =
        test::makeTinyDesign({{0, Rect{100, 620, 700, 800}}});
    const db::UniqueInstances ui =
        db::UniqueInstanceIndex(*td.design, 1).classes();
    const core::InstContext ctx(*td.design, ui.classes[0]);
    const auto aps =
        core::AccessPointGenerator(ctx).generate(ctx.signalPins()[0]);
    std::printf("  generator on panel-(d) pin: %zu APs, first type cost %d "
                "(>0 means off-track engaged)\n",
                aps.size(), aps.empty() ? -1 : aps.front().typeCost());
  }
  std::printf("%s\n", allMatch ? "PASS: all panels match the paper"
                               : "FAIL: panel mismatch");
  report.bench()
      .set("rows", std::move(rows))
      .set("allPanelsMatch", obs::Json(allMatch));
  if (!report.write()) return 1;
  return allMatch ? 0 : 1;
}
