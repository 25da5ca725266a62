// Google-benchmark microbenchmarks for the library's hot paths: geometry
// kernels, DRC queries, access point generation, pattern DP and cluster
// selection.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "benchgen/testcase.hpp"
#include "db/unique_inst.hpp"
#include "drc/engine.hpp"
#include "geom/grid_index.hpp"
#include "geom/polygon.hpp"
#include "pao/ap_gen.hpp"
#include "pao/cluster_select.hpp"
#include "pao/evaluate.hpp"
#include "pao/pattern_gen.hpp"
#include "util/jobs.hpp"

using namespace pao;

namespace {

/// A shared small testcase; built once.
const benchgen::Testcase& testcase() {
  static const benchgen::Testcase tc =
      benchgen::generate(benchgen::ispd18Suite()[0], 0.01);
  return tc;
}

void BM_PolygonUnionBoundary(benchmark::State& state) {
  std::vector<geom::Rect> rects;
  for (int i = 0; i < state.range(0); ++i) {
    rects.emplace_back(i * 70, (i % 5) * 50, i * 70 + 120, (i % 5) * 50 + 90);
  }
  for (auto _ : state) {
    util::ArenaScope scratch(util::scratchArena());
    geom::BoundaryRings rings;
    geom::unionBoundary(rects, rings);
    benchmark::DoNotOptimize(rings.edges.data());
  }
}
BENCHMARK(BM_PolygonUnionBoundary)->Arg(4)->Arg(16)->Arg(64);

void BM_MaxRects(benchmark::State& state) {
  std::vector<geom::Rect> rects;
  for (int i = 0; i < state.range(0); ++i) {
    rects.emplace_back(i * 70, (i % 5) * 50, i * 70 + 120, (i % 5) * 50 + 90);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::maxRects(rects));
  }
}
BENCHMARK(BM_MaxRects)->Arg(4)->Arg(16);

void BM_GridIndexQuery(benchmark::State& state) {
  geom::GridIndex<int> idx;
  for (int i = 0; i < 10000; ++i) {
    idx.insert({i * 37 % 50000, i * 91 % 50000, i * 37 % 50000 + 400,
                i * 91 % 50000 + 400},
               i);
  }
  geom::Coord at = 0;
  for (auto _ : state) {
    at = (at + 977) % 50000;
    benchmark::DoNotOptimize(idx.queryValues({at, at, at + 1200, at + 1200}));
  }
}
BENCHMARK(BM_GridIndexQuery);

/// Building the index of BM_GridIndexQuery's 10k items: the exact-size bulk
/// fill (incremental:0, which includes copying the entries in) or one
/// insert() per item (incremental:1).
void BM_GridIndexBuild(benchmark::State& state) {
  std::vector<geom::GridIndex<int>::Entry> entries;
  for (int i = 0; i < 10000; ++i) {
    entries.push_back({{i * 37 % 50000, i * 91 % 50000, i * 37 % 50000 + 400,
                        i * 91 % 50000 + 400},
                       i});
  }
  const bool incremental = state.range(0) != 0;
  for (auto _ : state) {
    if (incremental) {
      geom::GridIndex<int> idx;
      for (const auto& e : entries) idx.insert(e.bbox, e.value);
      benchmark::DoNotOptimize(idx.size());
    } else {
      const geom::GridIndex<int> idx(entries);
      benchmark::DoNotOptimize(idx.size());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(entries.size()));
}
BENCHMARK(BM_GridIndexBuild)->ArgName("incremental")->Arg(0)->Arg(1);

/// The boundary checkVia extracts per enclosure: a lone enclosure (1 rect,
/// the closed form), a pin bar and a via enclosure over it (2 rects), plus
/// an L leg (3) and a second bar (4).
void BM_UnionBoundary(benchmark::State& state) {
  const std::vector<geom::Rect> pin = {{-35, 500, 105, 570},
                                       {0, 0, 70, 1150},
                                       {0, 0, 320, 70},
                                       {250, 0, 320, 690}};
  const std::vector<geom::Rect> rects(pin.begin(),
                                      pin.begin() + state.range(0));
  for (auto _ : state) {
    util::ArenaScope scratch(util::scratchArena());
    geom::BoundaryRings rings;
    geom::unionBoundary(rects, rings);
    benchmark::DoNotOptimize(rings.edges.data());
  }
}
BENCHMARK(BM_UnionBoundary)->DenseRange(1, 4);

void BM_CheckVia(benchmark::State& state) {
  const benchgen::Testcase& tc = testcase();
  const auto unique = db::UniqueInstanceIndex(*tc.design, 1).classes();
  const core::InstContext ctx(*tc.design, unique.classes[0]);
  const db::ViaDef* via = tc.tech->viaDefsFromLayer(0).front();
  const int pin = ctx.signalPins()[0];
  const geom::Rect bbox =
      ctx.pinShapes(pin, ctx.pinLayers(pin).front()).front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.engine().checkVia(*via, bbox.center(), ctx.pinNet(pin)));
  }
}
BENCHMARK(BM_CheckVia);

void BM_AccessPointGeneration(benchmark::State& state) {
  const benchgen::Testcase& tc = testcase();
  const auto unique = db::UniqueInstanceIndex(*tc.design, 1).classes();
  const core::InstContext ctx(*tc.design, unique.classes[0]);
  core::ApGenConfig cfg;
  cfg.k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::AccessPointGenerator gen(ctx, cfg);
    benchmark::DoNotOptimize(gen.generateAll());
  }
}
BENCHMARK(BM_AccessPointGeneration)->Arg(1)->Arg(3)->Arg(10);

void BM_PatternGeneration(benchmark::State& state) {
  const benchgen::Testcase& tc = testcase();
  const auto unique = db::UniqueInstanceIndex(*tc.design, 1).classes();
  const core::InstContext ctx(*tc.design, unique.classes[0]);
  const auto aps = core::AccessPointGenerator(ctx).generateAll();
  for (auto _ : state) {
    core::PatternGenerator gen(ctx, aps);
    benchmark::DoNotOptimize(gen.run());
  }
}
BENCHMARK(BM_PatternGeneration);

void BM_FullOracle(benchmark::State& state) {
  const benchgen::Testcase& tc = testcase();
  for (auto _ : state) {
    core::PinAccessOracle oracle(*tc.design, core::withBcaConfig());
    benchmark::DoNotOptimize(oracle.run());
  }
}
BENCHMARK(BM_FullOracle)->Unit(benchmark::kMillisecond);

void BM_UniqueInstanceExtraction(benchmark::State& state) {
  const benchgen::Testcase& tc = testcase();
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::UniqueInstanceIndex(*tc.design, 1).classes());
  }
}
BENCHMARK(BM_UniqueInstanceExtraction);

/// The mixed preset's full fixed layout loaded into a DRC engine, plus a
/// blanket of routed wires so every shard kind (pairwise spacing, cut
/// spacing, per-net components) has real work. Built once.
const drc::DrcEngine& mixedLayoutEngine() {
  static const auto* holder = [] {
    struct Holder {
      benchgen::Testcase tc;
      std::unique_ptr<drc::DrcEngine> engine;
    };
    auto* h = new Holder{benchgen::generate(benchgen::mixedSpec(), 0.05), {}};
    const db::Design& design = *h->tc.design;
    h->engine = std::make_unique<drc::DrcEngine>(*design.tech);
    drc::RegionQuery& region = h->engine->region();
    int syntheticNet = 0;
    for (const db::Instance& inst : design.instances) {
      const geom::Transform xf = inst.transform();
      for (const db::Pin& pin : inst.master->pins) {
        const int net = syntheticNet++;
        for (const db::PinShape& sh : pin.shapes) {
          region.add({xf.apply(sh.rect), sh.layer, net,
                      drc::ShapeKind::kPin, true});
        }
      }
      for (const db::Obstruction& o : inst.master->obstructions) {
        region.add({xf.apply(o.rect), o.layer, drc::Shape::kObsNet,
                    drc::ShapeKind::kObstruction, true});
      }
    }
    // Routed wires striping the die on every routing layer; the deliberate
    // irregular pitch plants occasional spacing/min-area violations.
    const geom::Rect die = design.dieArea;
    for (const db::Layer& l : design.tech->layers()) {
      if (l.type != db::LayerType::kRouting) continue;
      const geom::Coord pitch = l.pitch * 3 + (l.index % 3) * 7;
      int wire = 0;
      if (l.dir == db::Dir::kHorizontal) {
        for (geom::Coord y = die.ylo + pitch; y < die.yhi; y += pitch) {
          region.add({{die.xlo, y, die.xhi, y + l.width}, l.index,
                      1000000 + wire++, drc::ShapeKind::kWire, false});
        }
      } else {
        for (geom::Coord x = die.xlo + pitch; x < die.xhi; x += pitch) {
          region.add({{x, die.ylo, x + l.width, die.yhi}, l.index,
                      1000000 + wire++, drc::ShapeKind::kWire, false});
        }
      }
    }
    return h;
  }();
  return *holder->engine;
}

/// checkAll batch-check throughput at various thread counts over the same
/// layout — the speedup column of the PR-1 acceptance criteria (needs a
/// multi-core host to show scaling; threads cap at hardware concurrency).
void BM_CheckAllMixed(benchmark::State& state) {
  const drc::DrcEngine& engine = mixedLayoutEngine();
  const int threads = static_cast<int>(state.range(0));
  std::size_t violations = 0;
  for (auto _ : state) {
    violations = engine.checkAll(threads).size();
    benchmark::DoNotOptimize(violations);
  }
  state.counters["violations"] = static_cast<double>(violations);
  state.counters["hw_threads"] =
      static_cast<double>(util::resolveThreads(0));
}
BENCHMARK(BM_CheckAllMixed)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Raw executor overhead/scaling on uneven CPU-bound tasks.
void BM_ParallelForUneven(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::atomic<long long> sum{0};
    util::parallelFor(
        256,
        [&](std::size_t i) {
          long long acc = 0;
          const long long iters = 1000 + (i % 17) * 4000;
          for (long long k = 0; k < iters; ++k) acc += (acc ^ k) % 977;
          sum += acc;
        },
        threads);
    benchmark::DoNotOptimize(sum.load());
  }
}
BENCHMARK(BM_ParallelForUneven)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

// Expanded BENCHMARK_MAIN() so the run can finish by writing the
// BENCH_bench_micro.json report (env + metrics snapshot; google-benchmark
// keeps its own per-benchmark numbers on stdout / --benchmark_out).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  pao::bench::BenchReport report("bench_micro");
  report.bench().set("framework", pao::obs::Json("google-benchmark"));
  return report.write() ? 0 : 1;
}
