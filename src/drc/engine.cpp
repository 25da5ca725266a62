#include "drc/engine.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <utility>

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

template std::vector<Violation> DrcEngine::checkVia(
    const RegionQuery&, const db::ViaDef&, Point, int, std::span<const Shape>,
    Rect*) const;

std::vector<Violation> DrcEngine::checkWire(const Rect& r, int layerIdx,
                                            int net,
                                            std::span<const Shape> extra) const {
  std::vector<Violation> out;
  const db::Layer& layer = tech_->layer(layerIdx);
  const Shape cand{r, layerIdx, net, ShapeKind::kWire, false};
  queryWithExtra(region_, layerIdx, r.bloat(maxSpacingHalo(layer)), extra,
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
          checkEdgeRules(region_, layer, comp, net, {}, out);
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
