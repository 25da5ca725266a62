#include "drc/engine.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <utility>

#include "geom/polygon.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/jobs.hpp"

namespace pao::drc {

using geom::Coord;
using geom::Point;
using geom::Rect;

DrcEngine::DrcEngine(const db::Tech& tech)
    : tech_(&tech), region_(static_cast<int>(tech.layers().size())) {}

std::array<Shape, 3> DrcEngine::viaShapes(const db::ViaDef& via, Point p,
                                          int net, bool fixed) const {
  return {{{via.botEncAt(p), via.botLayer, net, ShapeKind::kVia, fixed},
           {via.cutAt(p), via.cutLayer, net, ShapeKind::kVia, fixed},
           {via.topEncAt(p), via.topLayer, net, ShapeKind::kVia, fixed}}};
}

void DrcEngine::mergedComponent(const Rect& seed, int layer, int net,
                                std::span<const Shape> extra,
                                util::ArenaVector<Rect>& comp,
                                Rect* reach) const {
  comp.assign(1, seed);
  const auto absorbed = [&](const Rect& r) {
    return std::find(comp.begin(), comp.end(), r) != comp.end();
  };
  // Bounded flood fill over touching same-net shapes, breadth first: every
  // absorbed rect is expanded in turn, so comp[next..] is the frontier. The
  // bound keeps the incremental check local; standard-cell pins have few
  // rects.
  constexpr std::size_t kMaxComponent = 64;
  for (std::size_t next = 0;
       next < comp.size() && comp.size() < kMaxComponent; ++next) {
    const Rect cur = comp[next];
    queryWithExtra(
        layer, cur, extra,
        [&](const Shape& s) {
          if (s.net != net || comp.size() >= kMaxComponent) return;
          if (!s.rect.intersects(cur) || absorbed(s.rect)) return;
          comp.push_back(s.rect);
        },
        reach);
  }
  if (reach != nullptr && comp.size() >= kMaxComponent) {
    *reach = Rect(geom::kCoordMin, geom::kCoordMin, geom::kCoordMax,
                  geom::kCoordMax);
  }
}

void DrcEngine::checkEdgeRules(const db::Layer& layer,
                               std::span<const Rect> comp, int net,
                               std::span<const Shape> extra,
                               std::vector<Violation>& out,
                               Rect* reach) const {
  if (!layer.minStep && !layer.eol) return;
  const std::vector<geom::BoundaryRing> rings = geom::unionBoundary(comp);
  for (const Violation& v : checkMinStep(layer, rings)) out.push_back(v);
  if (!layer.eol) return;

  Rect compBox;
  for (const Rect& r : comp) compBox = compBox.merge(r);
  util::ArenaScope scratch(util::scratchArena());
  util::ArenaVector<Rect> obstacles;
  queryWithExtra(
      layer.index, compBox.bloat(maxSpacingHalo(layer)), extra,
      [&](const Shape& s) {
        if (s.net != net || s.net == Shape::kObsNet) {
          obstacles.push_back(s.rect);
        }
      },
      reach);
  for (const Violation& v : checkEol(layer, rings, net, obstacles)) {
    out.push_back(v);
  }
}

std::vector<Violation> DrcEngine::checkVia(const db::ViaDef& via, Point p,
                                           int net,
                                           std::span<const Shape> extra,
                                           Rect* reach) const {
  std::vector<Violation> out;

  const auto checkMetalRect = [&](const Rect& enc, int layerIdx) {
    const db::Layer& layer = tech_->layer(layerIdx);
    const Shape cand{enc, layerIdx, net, ShapeKind::kVia, false};
    const Coord halo = maxSpacingHalo(layer);

    // Spacing / shorts against conflicting context shapes.
    queryWithExtra(
        layerIdx, enc.bloat(halo), extra,
        [&](const Shape& s) {
          if (auto v = checkSpacingPair(layer, cand, s)) out.push_back(*v);
        },
        reach);

    // Min step and EOL over the merged same-net component. Only violations
    // in the via's vicinity are attributed to it — a long pin bar may carry
    // pre-existing artifacts far away that the via did not cause.
    const Coord window =
        halo + (layer.minStep ? layer.minStep->minStepLength : 0);
    const Rect vicinity = enc.bloat(window);
    util::ArenaScope scratch(util::scratchArena());
    util::ArenaVector<Rect> comp;
    mergedComponent(enc, layerIdx, net, extra, comp, reach);
    const std::size_t first = out.size();
    checkEdgeRules(layer, comp, net, extra, out, reach);
    out.erase(std::remove_if(out.begin() + static_cast<std::ptrdiff_t>(first),
                             out.end(),
                             [&](const Violation& v) {
                               return !v.bbox.intersects(vicinity);
                             }),
              out.end());
  };

  checkMetalRect(via.botEncAt(p), via.botLayer);
  checkMetalRect(via.topEncAt(p), via.topLayer);

  // Cut spacing.
  const db::Layer& cutLayer = tech_->layer(via.cutLayer);
  const Shape cutCand{via.cutAt(p), via.cutLayer, net, ShapeKind::kVia, false};
  queryWithExtra(
      via.cutLayer, cutCand.rect.bloat(cutLayer.cutSpacing), extra,
      [&](const Shape& s) {
        if (auto v = checkCutSpacingPair(cutLayer, cutCand, s)) {
          out.push_back(*v);
        }
      },
      reach);
  return out;
}

std::vector<Violation> DrcEngine::checkWire(const Rect& r, int layerIdx,
                                            int net,
                                            std::span<const Shape> extra) const {
  std::vector<Violation> out;
  const db::Layer& layer = tech_->layer(layerIdx);
  const Shape cand{r, layerIdx, net, ShapeKind::kWire, false};
  queryWithExtra(layerIdx, r.bloat(maxSpacingHalo(layer)), extra,
                 [&](const Shape& s) {
                   if (auto v = checkSpacingPair(layer, cand, s)) {
                     out.push_back(*v);
                   }
                 });
  return out;
}

std::vector<Violation> DrcEngine::checkViaPair(const db::ViaDef& viaA,
                                               Point pa, int netA,
                                               const db::ViaDef& viaB,
                                               Point pb, int netB) const {
  return checkVia(viaB, pb, netB, viaShapes(viaA, pa, netA));
}

std::vector<Violation> DrcEngine::checkAll(int numThreads) const {
  PAO_TRACE_SCOPE("drc.check_all");
  const int numLayers = static_cast<int>(tech_->layers().size());

  // The batch check is sharded into independent tasks: contiguous shape
  // ranges for the pairwise loops, which query the region's own per-layer
  // indices, and net ranges for the merged-component rules. Everything they
  // share is only read concurrently. The merged output is canonically
  // sorted, so the shard layout (and hence the thread count) never changes
  // the returned vector.
  std::vector<std::function<void(std::vector<Violation>&)>> tasks;
  std::deque<std::vector<std::pair<int, std::vector<const Shape*>>>> netLists;

  const auto rangeChunks = [&](std::size_t count,
                               const std::function<void(
                                   std::size_t, std::size_t,
                                   std::vector<Violation>&)>& body) {
    // Fixed shard target, independent of the thread count, so the task
    // count (and with it pao.jobs.executed) is identical at any --threads.
    // 64 shards per range keeps plenty of steal granularity for the worker
    // counts this engine sees without drowning the graph in tiny jobs.
    static constexpr std::size_t kShardTarget = 64;
    const std::size_t chunk =
        std::max<std::size_t>(1, (count + kShardTarget - 1) / kShardTarget);
    for (std::size_t lo = 0; lo < count; lo += chunk) {
      const std::size_t hi = std::min(count, lo + chunk);
      tasks.push_back([body, lo, hi](std::vector<Violation>& out) {
        body(lo, hi, out);
      });
    }
  };

  for (int li = 0; li < numLayers; ++li) {
    const db::Layer& layer = tech_->layer(li);
    const std::vector<Shape>& shapes = region_.shapesOnLayer(li);

    if (layer.type == db::LayerType::kCut) {
      rangeChunks(shapes.size(), [this, li, &layer, &shapes](
                                     std::size_t lo, std::size_t hi,
                                     std::vector<Violation>& out) {
        for (std::size_t i = lo; i < hi; ++i) {
          region_.queryIndices(
              li, shapes[i].rect.bloat(layer.cutSpacing), [&](std::size_t j) {
                if (j <= i) return;
                if (shapes[i].fixed && shapes[j].fixed) return;
                if (auto v = checkCutSpacingPair(layer, shapes[i], shapes[j])) {
                  out.push_back(*v);
                }
              });
        }
      });
      continue;
    }
    if (layer.type != db::LayerType::kRouting) continue;

    // Pairwise spacing (skip fixed-fixed: library geometry is self-clean).
    const Coord halo = maxSpacingHalo(layer);
    rangeChunks(shapes.size(), [this, li, &layer, &shapes, halo](
                                   std::size_t lo, std::size_t hi,
                                   std::vector<Violation>& out) {
      for (std::size_t i = lo; i < hi; ++i) {
        region_.queryIndices(
            li, shapes[i].rect.bloat(halo), [&](std::size_t j) {
              if (j <= i) return;
              if (shapes[i].fixed && shapes[j].fixed) return;
              if (auto v = checkSpacingPair(layer, shapes[i], shapes[j])) {
                out.push_back(*v);
              }
            });
      }
    });

    // Per-net merged components: min step, min area, EOL. Components made
    // only of fixed shapes are skipped (library pins are self-clean), and
    // min area exempts components anchored to a pin shape. Nets are
    // independent, so they shard by net range.
    std::map<int, std::vector<const Shape*>> byNet;
    for (const Shape& s : shapes) {
      if (s.net == Shape::kObsNet) continue;
      byNet[s.net].push_back(&s);
    }
    auto& nets = netLists.emplace_back(byNet.begin(), byNet.end());
    rangeChunks(nets.size(), [this, &layer, &nets](
                                 std::size_t lo, std::size_t hi,
                                 std::vector<Violation>& out) {
      for (std::size_t ni = lo; ni < hi; ++ni) {
        const auto& [net, netShapes] = nets[ni];
        // Union-find over this net's shapes by geometric adjacency.
        const std::size_t n = netShapes.size();
        std::vector<std::size_t> parent(n);
        for (std::size_t i = 0; i < n; ++i) parent[i] = i;
        const auto find = [&](std::size_t i) {
          while (parent[i] != i) {
            parent[i] = parent[parent[i]];
            i = parent[i];
          }
          return i;
        };
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = i + 1; j < n; ++j) {
            if (netShapes[i]->rect.intersects(netShapes[j]->rect)) {
              parent[find(i)] = find(j);
            }
          }
        }
        std::map<std::size_t, std::vector<const Shape*>> comps;
        for (std::size_t i = 0; i < n; ++i) {
          comps[find(i)].push_back(netShapes[i]);
        }

        for (const auto& [root, members] : comps) {
          bool anyRouted = false;
          bool anyFixed = false;
          std::vector<Rect> comp;
          comp.reserve(members.size());
          for (const Shape* s : members) {
            comp.push_back(s->rect);
            anyRouted = anyRouted || !s->fixed;
            anyFixed = anyFixed || s->fixed;
          }
          if (!anyRouted) continue;
          // MINSTEP markers carry no net; EOL markers already name `net`.
          const std::size_t first = out.size();
          checkEdgeRules(layer, comp, net, {}, out);
          for (std::size_t k = first; k < out.size(); ++k) out[k].netA = net;
          if (layer.minArea > 0 && !anyFixed) {
            if (auto v = checkMinArea(layer, comp, net)) out.push_back(*v);
          }
        }
      }
    });
  }

  // Each shard is a node of a (single-layer) job graph: callers that are
  // themselves job-graph nodes degrade to serial via the nested-run rule,
  // and shard slot writes keep the merge below schedule-invariant.
  std::vector<std::vector<Violation>> shardOut(tasks.size());
  util::JobGraph graph;
  graph.addJobRange(tasks.size(),
                    [&](std::size_t t) { tasks[t](shardOut[t]); });
  graph.run(numThreads);

  std::vector<Violation> out;
  for (std::vector<Violation>& shard : shardOut) {
    out.insert(out.end(), shard.begin(), shard.end());
  }
  sortViolations(out);
  // Post-merge totals: shard layout never changes the sorted result, so
  // both counters are thread-count-invariant.
  PAO_COUNTER_INC("pao.drc.check_all_runs");
  PAO_COUNTER_ADD("pao.drc.violations_found", out.size());
  return out;
}

}  // namespace pao::drc
