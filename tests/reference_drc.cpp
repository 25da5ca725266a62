// Reference DRC kernels (see reference.hpp). The bodies below are the
// rect-list min-step/EOL checks and the checkVia/checkAll drivers as they
// were, rewritten only where a private engine member had to become a free
// helper (mergedComponent, queryWithExtra) and where checkAll's sharded
// job graph became a serial loop (its output is sorted either way). Boundary
// rings come from the frozen reference::unionBoundary and checkAll indexes
// with the frozen hash-bin GridIndex, so neither leans on the kernels under
// test.
#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <utility>

#include "reference_grid_index.hpp"
#include "geom/polygon.hpp"
#include "reference.hpp"

namespace pao::reference {
namespace {

using drc::RegionQuery;
using drc::RuleKind;
using drc::Shape;
using drc::ShapeKind;
using drc::Violation;
using geom::BoundaryEdge;
using geom::Coord;
using geom::Point;
using geom::Rect;

std::vector<Violation> checkMinStep(const db::Layer& layer,
                                    const std::vector<Rect>& component) {
  std::vector<Violation> out;
  if (!layer.minStep) return out;
  const Coord minLen = layer.minStep->minStepLength;
  const int maxEdges = layer.minStep->maxEdges;

  for (const BoundaryRing& ring : reference::unionBoundary(component)) {
    const int n = static_cast<int>(ring.size());
    if (n == 0) continue;
    // Rotate the scan to start right after a long edge so runs never wrap.
    int start = -1;
    for (int i = 0; i < n; ++i) {
      if (ring[i].length() >= minLen) {
        start = i;
        break;
      }
    }
    if (start < 0) {
      // Every edge is a step. Flag when the ring exceeds the allowed count.
      if (n > maxEdges) {
        Rect bbox;
        for (const BoundaryEdge& e : ring) {
          bbox = bbox.merge(Rect(e.from, e.to));
        }
        out.push_back(
            {RuleKind::kMinStep, layer.index, bbox, Shape::kObsNet, -1});
      }
      continue;
    }
    int run = 0;
    Rect runBox;
    for (int k = 1; k <= n; ++k) {
      const BoundaryEdge& e = ring[(start + k) % n];
      if (e.length() < minLen) {
        ++run;
        runBox = runBox.merge(Rect(e.from, e.to));
        if (run == maxEdges + 1) {  // report once per run
          out.push_back(
              {RuleKind::kMinStep, layer.index, runBox, Shape::kObsNet, -1});
        }
      } else {
        run = 0;
        runBox = Rect();
      }
    }
  }
  return out;
}

/// Left-turn test for consecutive directed edges (rings are oriented with the
/// interior on the left, so a left turn is a convex corner).
bool leftTurn(const BoundaryEdge& a, const BoundaryEdge& b) {
  const Point d1{a.to.x - a.from.x, a.to.y - a.from.y};
  const Point d2{b.to.x - b.from.x, b.to.y - b.from.y};
  return d1.x * d2.y - d1.y * d2.x > 0;
}

/// The clearance region beyond an EOL edge: depth `space` outward (to the
/// right of the edge direction), extended `within` past both edge endpoints.
Rect eolRegion(const BoundaryEdge& e, Coord space, Coord within) {
  if (e.horizontal()) {
    const Coord x1 = std::min(e.from.x, e.to.x) - within;
    const Coord x2 = std::max(e.from.x, e.to.x) + within;
    // Edge direction +x has interior above; outward (right side) is -y.
    if (e.to.x > e.from.x) return {x1, e.from.y - space, x2, e.from.y};
    return {x1, e.from.y, x2, e.from.y + space};
  }
  const Coord y1 = std::min(e.from.y, e.to.y) - within;
  const Coord y2 = std::max(e.from.y, e.to.y) + within;
  // Edge direction +y has interior on the left (-x side); outward is +x.
  if (e.to.y > e.from.y) return {e.from.x, y1, e.from.x + space, y2};
  return {e.from.x - space, y1, e.from.x, y2};
}

std::vector<Violation> checkEol(const db::Layer& layer,
                                const std::vector<Rect>& component,
                                int selfNet, const RegionQuery& context) {
  std::vector<Violation> out;
  if (!layer.eol) return out;
  const db::EolRule rule = *layer.eol;

  for (const BoundaryRing& ring : reference::unionBoundary(component)) {
    const int n = static_cast<int>(ring.size());
    for (int i = 0; i < n; ++i) {
      const BoundaryEdge& e = ring[i];
      if (e.length() >= rule.eolWidth) continue;
      const BoundaryEdge& prev = ring[(i + n - 1) % n];
      const BoundaryEdge& next = ring[(i + 1) % n];
      if (!leftTurn(prev, e) || !leftTurn(e, next)) continue;  // not a line end
      const Rect region = eolRegion(e, rule.space, rule.within);
      bool hit = false;
      context.query(layer.index, region, [&](const Shape& s) {
        if (hit) return;
        if (s.net == selfNet && s.net != Shape::kObsNet) return;
        if (s.rect.overlaps(region)) hit = true;
      });
      if (hit) {
        out.push_back({RuleKind::kEndOfLine, layer.index, region, selfNet,
                       Shape::kObsNet});
      }
    }
  }
  return out;
}

template <typename Fn>
void queryWithExtra(const drc::DrcEngine& engine, int layer, const Rect& box,
                    std::span<const Shape> extra, Fn&& fn) {
  engine.region().query(layer, box, fn);
  for (const Shape& s : extra) {
    if (s.layer == layer && s.rect.intersects(box)) fn(s);
  }
}

std::vector<Rect> mergedComponent(const drc::DrcEngine& engine,
                                  const Rect& seed, int layer, int net,
                                  std::span<const Shape> extra) {
  std::vector<Rect> comp{seed};
  std::deque<Rect> frontier{seed};
  const auto absorbed = [&](const Rect& r) {
    return std::find(comp.begin(), comp.end(), r) != comp.end();
  };
  // Bounded flood fill over touching same-net shapes. The bound keeps the
  // incremental check local; standard-cell pins have few rects.
  constexpr std::size_t kMaxComponent = 64;
  while (!frontier.empty() && comp.size() < kMaxComponent) {
    const Rect cur = frontier.front();
    frontier.pop_front();
    queryWithExtra(engine, layer, cur, extra, [&](const Shape& s) {
      if (s.net != net || comp.size() >= kMaxComponent) return;
      if (!s.rect.intersects(cur) || absorbed(s.rect)) return;
      comp.push_back(s.rect);
      frontier.push_back(s.rect);
    });
  }
  return comp;
}

}  // namespace

std::vector<Violation> checkVia(const drc::DrcEngine& engine,
                                const db::ViaDef& via, Point p, int net,
                                std::span<const Shape> extra) {
  const db::Tech* tech_ = &engine.tech();
  std::vector<Violation> out;

  const auto checkMetalRect = [&](const Rect& enc, int layerIdx) {
    const db::Layer& layer = tech_->layer(layerIdx);
    const Shape cand{enc, layerIdx, net, ShapeKind::kVia, false};
    const Coord halo = drc::maxSpacingHalo(layer);

    // Spacing / shorts against conflicting context shapes.
    queryWithExtra(engine, layerIdx, enc.bloat(halo), extra,
                   [&](const Shape& s) {
                     if (auto v = drc::checkSpacingPair(layer, cand, s)) {
                       out.push_back(*v);
                     }
                   });

    // Min step and EOL over the merged same-net component. Only violations
    // in the via's vicinity are attributed to it — a long pin bar may carry
    // pre-existing artifacts far away that the via did not cause.
    const Coord window =
        halo + (layer.minStep ? layer.minStep->minStepLength : 0);
    const Rect vicinity = enc.bloat(window);
    const std::vector<Rect> comp =
        mergedComponent(engine, enc, layerIdx, net, extra);
    for (Violation v : checkMinStep(layer, comp)) {
      if (v.bbox.intersects(vicinity)) out.push_back(v);
    }
    if (layer.eol) {
      // Build a local context holding nearby conflicting shapes plus extras.
      Rect compBox;
      for (const Rect& r : comp) compBox = compBox.merge(r);
      RegionQuery local(static_cast<int>(tech_->layers().size()));
      queryWithExtra(engine, layerIdx, compBox.bloat(halo), extra,
                     [&](const Shape& s) {
                       if (s.net != net || s.net == Shape::kObsNet) {
                         local.add(s);
                       }
                     });
      for (Violation v : checkEol(layer, comp, net, local)) {
        if (v.bbox.intersects(vicinity)) out.push_back(v);
      }
    }
  };

  checkMetalRect(via.botEncAt(p), via.botLayer);
  checkMetalRect(via.topEncAt(p), via.topLayer);

  // Cut spacing.
  const db::Layer& cutLayer = tech_->layer(via.cutLayer);
  const Shape cutCand{via.cutAt(p), via.cutLayer, net, ShapeKind::kVia, false};
  queryWithExtra(engine, via.cutLayer, cutCand.rect.bloat(cutLayer.cutSpacing),
                 extra, [&](const Shape& s) {
                   if (auto v = drc::checkCutSpacingPair(cutLayer, cutCand,
                                                         s)) {
                     out.push_back(*v);
                   }
                 });
  return out;
}

std::vector<Violation> checkAll(const drc::DrcEngine& engine) {
  const db::Tech* tech_ = &engine.tech();
  const RegionQuery& region_ = engine.region();
  const int numLayers = static_cast<int>(tech_->layers().size());

  std::vector<std::function<void(std::vector<Violation>&)>> tasks;
  std::deque<GridIndex<std::size_t>> indices;
  std::deque<std::vector<std::pair<int, std::vector<const Shape*>>>> netLists;

  const auto rangeChunks = [&](std::size_t count,
                               const std::function<void(
                                   std::size_t, std::size_t,
                                   std::vector<Violation>&)>& body) {
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
      GridIndex<std::size_t>& idx = indices.emplace_back();
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        idx.insert(shapes[i].rect, i);
      }
      rangeChunks(shapes.size(), [&layer, &shapes, &idx](
                                     std::size_t lo, std::size_t hi,
                                     std::vector<Violation>& out) {
        for (std::size_t i = lo; i < hi; ++i) {
          idx.query(shapes[i].rect.bloat(layer.cutSpacing),
                    [&](const Rect&, std::size_t j) {
                      if (j <= i) return;
                      if (shapes[i].fixed && shapes[j].fixed) return;
                      if (auto v = drc::checkCutSpacingPair(layer, shapes[i],
                                                            shapes[j])) {
                        out.push_back(*v);
                      }
                    });
        }
      });
      continue;
    }
    if (layer.type != db::LayerType::kRouting) continue;

    // Pairwise spacing (skip fixed-fixed: library geometry is self-clean).
    const Coord halo = drc::maxSpacingHalo(layer);
    GridIndex<std::size_t>& idx = indices.emplace_back();
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      idx.insert(shapes[i].rect, i);
    }
    rangeChunks(shapes.size(), [&layer, &shapes, &idx, halo](
                                   std::size_t lo, std::size_t hi,
                                   std::vector<Violation>& out) {
      for (std::size_t i = lo; i < hi; ++i) {
        idx.query(shapes[i].rect.bloat(halo),
                  [&](const Rect&, std::size_t j) {
                    if (j <= i) return;
                    if (shapes[i].fixed && shapes[j].fixed) return;
                    if (auto v = drc::checkSpacingPair(layer, shapes[i],
                                                       shapes[j])) {
                      out.push_back(*v);
                    }
                  });
      }
    });

    // Per-net merged components: min step, min area, EOL. Components made
    // only of fixed shapes are skipped (library pins are self-clean), and
    // min area exempts components anchored to a pin shape.
    std::map<int, std::vector<const Shape*>> byNet;
    for (const Shape& s : shapes) {
      if (s.net == Shape::kObsNet) continue;
      byNet[s.net].push_back(&s);
    }
    auto& nets = netLists.emplace_back(byNet.begin(), byNet.end());
    rangeChunks(nets.size(), [&region_, &layer, &nets](
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
          for (Violation v : checkMinStep(layer, comp)) {
            v.netA = net;
            out.push_back(v);
          }
          if (layer.minArea > 0 && !anyFixed) {
            if (auto v = drc::checkMinArea(layer, comp, net)) {
              out.push_back(*v);
            }
          }
          for (Violation v : checkEol(layer, comp, net, region_)) {
            out.push_back(v);
          }
        }
      }
    });
  }

  std::vector<Violation> out;
  for (const auto& task : tasks) task(out);
  drc::sortViolations(out);
  return out;
}

}  // namespace pao::reference
