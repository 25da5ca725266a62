#include "router/router.hpp"

#include <chrono>
#include <map>
#include <queue>
#include <set>

#include "geom/polygon.hpp"

#include "geom/grid_index.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/jobs.hpp"

namespace pao::router {

using geom::Coord;
using geom::Point;
using geom::Rect;

DetailedRouter::DetailedRouter(const db::Design& design,
                               const AccessSource& access, RouterConfig cfg)
    : design_(&design),
      access_(&access),
      cfg_(cfg),
      grid_(design),
      fixed_(static_cast<int>(design.tech->layers().size())),
      routed_(static_cast<int>(design.tech->layers().size())) {
  // Blocking halos per layer: wires need width/2 + spacing (isotropic);
  // via landings need the enclosure half-extent + spacing per axis.
  const int numLayers = static_cast<int>(design.tech->layers().size());
  wireHalo_.assign(numLayers, 0);
  viaHaloX_.assign(numLayers, 0);
  viaHaloY_.assign(numLayers, 0);
  for (const db::Layer& l : design.tech->layers()) {
    if (l.type != db::LayerType::kRouting) continue;
    wireHalo_[l.index] = l.width / 2 + l.minSpacing() - 1;
    Coord encX = l.width / 2;
    Coord encY = l.width / 2;
    for (const db::ViaDef& v : design.tech->viaDefs()) {
      for (const geom::Rect* enc :
           {v.botLayer == l.index ? &v.botEnc : nullptr,
            v.topLayer == l.index ? &v.topEnc : nullptr}) {
        if (enc == nullptr) continue;
        encX = std::max(encX, enc->width() / 2);
        encY = std::max(encY, enc->height() / 2);
      }
    }
    viaHaloX_[l.index] = encX + l.minSpacing() - 1;
    viaHaloY_[l.index] = encY + l.minSpacing() - 1;
  }
}

void DetailedRouter::registerShape(const RouteShape& s) {
  routed_.add({s.rect, s.layer, s.net,
               s.isVia ? drc::ShapeKind::kVia : drc::ShapeKind::kWire,
               false});
  const db::Layer& l = design_->tech->layer(s.layer);
  if (l.type == db::LayerType::kRouting) {
    // Wide shapes demand more spacing (PRL table); scale the halos by the
    // spacing this shape would require against a long parallel neighbor.
    const Coord extra =
        l.spacing(std::max(l.width, s.rect.minDim()), geom::kCoordMax / 8) -
        l.minSpacing();
    grid_.blockFixedShape(s.rect, s.layer, s.net, wireHalo_[s.layer] + extra,
                          viaHaloX_[s.layer] + extra,
                          viaHaloY_[s.layer] + extra);
  }
}

void DetailedRouter::placeShape(const RouteShape& s,
                                std::vector<RouteShape>& shapes) {
  shapes.push_back(s);
  registerShape(s);
}

namespace {

/// Electrical identity per (instance, master-pin index): design net id or a
/// synthetic unique id; supply pins map to kObsNet.
std::map<std::pair<int, int>, int> buildNetOf(const db::Design& design) {
  std::map<std::pair<int, int>, int> netOf;
  for (int n = 0; n < static_cast<int>(design.nets.size()); ++n) {
    for (const db::NetTerm& t : design.nets[n].terms) {
      if (!t.isIo()) netOf[{t.instIdx, t.pinIdx}] = n;
    }
  }
  return netOf;
}

/// Calls f(shape) for every instance pin shape and obstruction of `design`,
/// fixed. A signal pin takes its design net from `netOf`, else the next id
/// from `synthetic` (one per pin, in instance then pin order); supply pins
/// and obstructions are foreign metal (kObsNet).
template <typename F>
void forEachFixedShape(const db::Design& design,
                       const std::map<std::pair<int, int>, int>& netOf,
                       int& synthetic, F&& f) {
  std::vector<int> pinNet;
  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const db::Instance& inst = design.instances[i];
    pinNet.clear();
    for (int p = 0; p < static_cast<int>(inst.master->pins.size()); ++p) {
      int net = drc::Shape::kObsNet;
      if (!inst.master->pins[p].isSupply()) {
        const auto it = netOf.find({i, p});
        net = it != netOf.end() ? it->second : synthetic++;
      }
      pinNet.push_back(net);
    }
    db::forEachPlacedShape(inst, [&](const Rect& r, int layer, int p) {
      if (p < 0) {
        f(drc::Shape{r, layer, drc::Shape::kObsNet,
                     drc::ShapeKind::kObstruction, true});
      } else {
        f(drc::Shape{r, layer, pinNet[p], drc::ShapeKind::kPin, true});
      }
    });
  }
}

}  // namespace

RouteResult DetailedRouter::run() {
  PAO_TRACE_SCOPE("router.run");
  const auto t0 = std::chrono::steady_clock::now();
  RouteResult result;
  const db::Design& design = *design_;

  // Phase 0: block the grid under fixed metal.
  const std::map<std::pair<int, int>, int> netOf = buildNetOf(design);
  {
    PAO_TRACE_SCOPE("router.seed_fixed");
    seedFixed(netOf);
  }

  // Phase 1: place every net's access vias first so all routing sees all
  // pin contacts as blockages (mirrors TritonRoute's flow, where pin access
  // is resolved before track assignment). Planning is per-net independent
  // and runs on the executor; commits stay serial in net order so the
  // emitted shape sequence is identical for any thread count.
  std::vector<std::vector<Node>> termNodes(design.nets.size());
  {
    PAO_TRACE_SCOPE("router.access");
    std::vector<TermPlan> plans(design.nets.size());
    util::parallelFor(
        design.nets.size(),
        [&](std::size_t n) { plans[n] = planTerms(static_cast<int>(n)); },
        cfg_.numThreads);
    for (int n = 0; n < static_cast<int>(design.nets.size()); ++n) {
      termNodes[n] = commitTerms(plans[n], result.shapes, result.stats);
    }
  }

  // Phase 2: route nets in index order.
  std::vector<bool> failed(design.nets.size(), false);
  {
    PAO_TRACE_SCOPE("router.route_nets");
    for (int n = 0; n < static_cast<int>(design.nets.size()); ++n) {
      failed[n] = !routeNet(n, termNodes[n], result.shapes, result.stats);
    }
  }

  // Phase 3: min-area repair over the completed layout.
  {
    PAO_TRACE_SCOPE("router.min_area_repair");
    repairMinArea(result.shapes, result.stats);
  }

  // Phase 4: rip-up-and-reroute nets whose wiring participates in DRC
  // violations. Each pass removes the offenders' wiring (access vias stay —
  // they are the contract with the pin access oracle), rebuilds the grid
  // state from the survivors, and re-routes with full knowledge.
  if (cfg_.countDrcs) {
    PAO_TRACE_SCOPE("router.ripup_reroute");
    for (int pass = 0; pass < cfg_.ripupPasses; ++pass) {
      const std::vector<drc::Violation> violations =
          runDrc(result.shapes, netOf);
      std::set<int> offenders;
      for (const drc::Violation& v : violations) {
        for (const int net : {v.netA, v.netB}) {
          if (net >= 0 && net < static_cast<int>(design.nets.size())) {
            offenders.insert(net);
          }
        }
      }
      if (offenders.empty()) break;
      result.stats.rippedNets += offenders.size();

      std::erase_if(result.shapes, [&](const RouteShape& sh) {
        return offenders.count(sh.net) != 0 && !sh.isAccess;
      });
      // Rebuild grid blockage and the routed region query from survivors.
      grid_ = RoutingGrid(design);
      routed_.clear();
      seedFixed(netOf);
      for (const RouteShape& sh : result.shapes) registerShape(sh);
      for (int n = 0; n < static_cast<int>(design.nets.size()); ++n) {
        for (const Node& node : termNodes[n]) grid_.occupy(node, n);
      }
      for (const int n : offenders) {
        failed[n] = !routeNet(n, termNodes[n], result.shapes, result.stats);
      }
      repairMinArea(result.shapes, result.stats);
    }
  }

  // Final stats from the surviving shape set.
  result.stats.routedNets = 0;
  result.stats.failedNets = 0;
  for (const bool f : failed) {
    f ? ++result.stats.failedNets : ++result.stats.routedNets;
  }
  result.stats.wireShapes = 0;
  result.stats.viaCount = 0;
  for (const RouteShape& sh : result.shapes) {
    if (sh.isVia) {
      ++result.stats.viaCount;  // counted per shape; divided below
    } else {
      ++result.stats.wireShapes;
    }
  }
  result.stats.viaCount /= 3;  // three shapes per via

  result.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (cfg_.countDrcs) {
    result.violations = runDrc(result.shapes, netOf);
    // Classify: a violation is access-related when its marker touches an
    // access via / landing patch (bloated slightly for zero-area markers).
    std::vector<geom::GridIndex<int>::Entry> accessShapes;
    for (const RouteShape& sh : result.shapes) {
      if (sh.isAccess) accessShapes.push_back({sh.rect, sh.layer});
    }
    const geom::GridIndex<int> accessIdx(std::move(accessShapes));
    for (const drc::Violation& v : result.violations) {
      bool access = false;
      accessIdx.query(v.bbox.bloat(1), [&](const geom::Rect&, int layer) {
        if (layer == v.layer || v.layer < 0) access = true;
      });
      if (access) ++result.accessViolations;
    }
  }
  // End-of-run totals (routing is serial in net order, so every one of
  // these is thread-count-invariant).
  PAO_COUNTER_ADD("pao.router.routed_nets", result.stats.routedNets);
  PAO_COUNTER_ADD("pao.router.failed_nets", result.stats.failedNets);
  PAO_COUNTER_ADD("pao.router.ripped_nets", result.stats.rippedNets);
  PAO_COUNTER_ADD("pao.router.wire_shapes", result.stats.wireShapes);
  PAO_COUNTER_ADD("pao.router.via_count", result.stats.viaCount);
  PAO_COUNTER_ADD("pao.router.access_violations", result.accessViolations);
  return result;
}

void DetailedRouter::seedFixed(
    const std::map<std::pair<int, int>, int>& netOf) {
  const db::Design& design = *design_;
  const auto block = [&](const geom::Rect& r, int layer, int net) {
    const db::Layer& l = design.tech->layer(layer);
    const Coord extra =
        l.spacing(std::max(l.width, r.minDim()), geom::kCoordMax / 8) -
        l.minSpacing();
    grid_.blockFixedShape(r, layer, net, wireHalo_[layer] + extra,
                          viaHaloX_[layer] + extra,
                          viaHaloY_[layer] + extra);
  };
  // IO pins keep their own net id (found via net terms, the last one
  // wins); an unconnected one gets a synthetic id after the instance pins'.
  std::vector<int> ioNet(design.ioPins.size(), -1);
  for (int n = 0; n < static_cast<int>(design.nets.size()); ++n) {
    for (const db::NetTerm& t : design.nets[n].terms) {
      if (t.isIo() && t.ioPinIdx >= 0 &&
          t.ioPinIdx < static_cast<int>(ioNet.size())) {
        ioNet[t.ioPinIdx] = n;
      }
    }
  }
  const auto emit = [&](const auto& f) {
    int synthetic = static_cast<int>(design.nets.size());
    forEachFixedShape(design, netOf, synthetic, f);
    for (int i = 0; i < static_cast<int>(design.ioPins.size()); ++i) {
      f(drc::Shape{design.ioPins[i].rect, design.ioPins[i].layer,
                   ioNet[i] >= 0 ? ioNet[i] : synthetic + i,
                   drc::ShapeKind::kIoPin, true});
    }
  };
  emit([&](const drc::Shape& s) { block(s.rect, s.layer, s.net); });
  fixed_ = drc::RegionQuery(fixed_.numLayers(), emit);
}

std::vector<drc::Violation> DetailedRouter::runDrc(
    const std::vector<RouteShape>& shapes,
    const std::map<std::pair<int, int>, int>& netOf) const {
  const db::Design& design = *design_;
  drc::DrcEngine engine(*design.tech);
  engine.region() = drc::RegionQuery(
      engine.region().numLayers(), [&](const auto& add) {
        int synthetic = static_cast<int>(design.nets.size()) + 1000000;
        forEachFixedShape(design, netOf, synthetic, add);
        for (const RouteShape& sh : shapes) {
          add({sh.rect, sh.layer, sh.net,
               sh.isVia ? drc::ShapeKind::kVia : drc::ShapeKind::kWire,
               false});
        }
      });
  return engine.checkAll(cfg_.numThreads);
}

bool DetailedRouter::padFits(const Rect& r, int layer, int net) const {
  const db::Layer& l = design_->tech->layer(layer);
  bool ok = true;
  const drc::Shape cand{r, layer, net, drc::ShapeKind::kWire, false};
  const auto probe = [&](const drc::Shape& s) {
    if (ok && drc::checkSpacingPair(l, cand, s)) ok = false;
  };
  fixed_.query(layer, r.bloat(drc::maxSpacingHalo(l)), probe);
  routed_.query(layer, r.bloat(drc::maxSpacingHalo(l)), probe);
  return ok;
}

void DetailedRouter::emitMinAreaPad(Point at, int layer, int net,
                                    std::vector<RouteShape>& shapes,
                                    RouteStats& stats, bool isAccess) {
  const db::Layer& l = design_->tech->layer(layer);
  if (l.minArea <= 0) return;
  const bool horiz = l.dir == db::Dir::kHorizontal;
  const Coord half = l.width / 2;
  // Pad width matches the largest via enclosure across-extent on this layer
  // so pad ends are neither EOL edges nor sub-minStep steps.
  Coord acrossHalf = half;
  for (const db::ViaDef& v : design_->tech->viaDefs()) {
    if (v.botLayer == layer) {
      acrossHalf = std::max(
          acrossHalf, (horiz ? v.botEnc.height() : v.botEnc.width()) / 2);
    }
    if (v.topLayer == layer) {
      acrossHalf = std::max(
          acrossHalf, (horiz ? v.topEnc.height() : v.topEnc.width()) / 2);
    }
  }
  const Coord len = std::max<Coord>(l.minArea / (2 * acrossHalf), 2 * half);
  const auto padAt = [&](Coord shift) {
    const Coord lo = -len / 2 + shift;
    const Coord hi = len - len / 2 + shift;
    return horiz ? Rect{at.x + lo, at.y - acrossHalf, at.x + hi,
                        at.y + acrossHalf}
                 : Rect{at.x - acrossHalf, at.y + lo, at.x + acrossHalf,
                        at.y + hi};
  };
  Rect pad = padAt(0);
  for (const Coord shift :
       {geom::Coord{0}, len / 2, -len / 2, len, -len}) {
    const Rect cand = padAt(shift);
    if (padFits(cand, layer, net)) {
      pad = cand;
      break;
    }
  }
  placeShape({pad, layer, net, false, isAccess}, shapes);
  ++stats.wireShapes;
}

void DetailedRouter::repairMinArea(std::vector<RouteShape>& shapes,
                                   RouteStats& stats) {
  // Group routed shapes per (net, layer); pad components below min area.
  // Components touching fixed pin metal are exempt (anchored).
  std::map<std::pair<int, int>, std::vector<Rect>> groups;
  for (const RouteShape& s : shapes) {
    const db::Layer& l = design_->tech->layer(s.layer);
    if (l.type != db::LayerType::kRouting || l.minArea <= 0) continue;
    groups[{s.net, s.layer}].push_back(s.rect);
  }
  for (const auto& [key, rects] : groups) {
    const auto& [net, layer] = key;
    const db::Layer& l = design_->tech->layer(layer);
    for (const std::vector<Rect>& comp : geom::connectedComponents(rects)) {
      if (geom::unionArea(comp) >= l.minArea) continue;
      // Anchored to a pin? Then the pin provides the area.
      bool anchored = false;
      for (const Rect& r : comp) {
        fixed_.query(layer, r, [&](const drc::Shape& s) {
          if (s.net == net && s.rect.intersects(r)) anchored = true;
        });
      }
      if (anchored) continue;
      Rect bbox;
      for (const Rect& r : comp) bbox = bbox.merge(r);
      emitMinAreaPad(bbox.center(), layer, net, shapes, stats,
                     /*isAccess=*/false);
    }
  }
}

DetailedRouter::TermPlan DetailedRouter::planTerms(int netIdx) const {
  const db::Net& net = design_->nets[netIdx];
  TermPlan plan;
  plan.netIdx = netIdx;
  // Terminal nodes: pin contacts enter through their access via's top layer;
  // IO pins connect directly on their own layer.
  for (const db::NetTerm& t : net.terms) {
    if (t.isIo()) {
      const db::IoPin& io = design_->ioPins[t.ioPinIdx];
      const Node n = grid_.snap(io.layer, io.rect.center());
      if (grid_.valid(n)) {
        plan.termNodes.push_back(n);
      } else {
        ++plan.skippedTerms;
      }
      continue;
    }
    const db::Master& master = *design_->instances[t.instIdx].master;
    const std::vector<int> sig = master.signalPinIndices();
    int pos = -1;
    for (int i = 0; i < static_cast<int>(sig.size()); ++i) {
      if (sig[i] == t.pinIdx) pos = i;
    }
    const auto contact =
        pos >= 0 ? access_->contact(t.instIdx, pos) : std::nullopt;
    if (!contact) {
      ++plan.skippedTerms;
      continue;
    }
    // Drop the access via (its shapes become blockage for later nets at
    // commit time — node occupancy cannot protect off-grid enclosures).
    const db::ViaDef& via = *contact->via;
    plan.shapes.push_back(
        {via.botEncAt(contact->loc), via.botLayer, netIdx, true, true});
    plan.shapes.push_back(
        {via.cutAt(contact->loc), via.cutLayer, netIdx, true, true});
    plan.shapes.push_back(
        {via.topEncAt(contact->loc), via.topLayer, netIdx, true, true});
    ++plan.viaCount;

    const Node n = grid_.snap(via.topLayer, contact->loc);
    if (!grid_.valid(n)) {
      ++plan.skippedTerms;
      continue;
    }
    // Landing jog: reaches the (possibly off-track) access point from the
    // grid node. Emitted as an L of two enclosure-width segments (first
    // along the top layer's preferred direction from the access point, then
    // across to the node) so the merged metal has no sub-minStep ledges and
    // no end narrower than the enclosure.
    const Point np = grid_.pointOf(n);
    const db::Layer& top = design_->tech->layer(via.topLayer);
    const Coord half = std::max(
        top.width / 2, top.dir == db::Dir::kHorizontal
                           ? via.topEnc.height() / 2
                           : via.topEnc.width() / 2);
    if (np != contact->loc) {
      const bool horiz = top.dir == db::Dir::kHorizontal;
      // Leg 1: preferred direction at the access point's across-coordinate.
      const Point corner = horiz ? Point{np.x, contact->loc.y}
                                 : Point{contact->loc.x, np.y};
      const auto leg = [&](const Point& a, const Point& b) {
        if (a == b) return;
        plan.shapes.push_back(
            {Rect{std::min(a.x, b.x) - half, std::min(a.y, b.y) - half,
                  std::max(a.x, b.x) + half, std::max(a.y, b.y) + half},
             via.topLayer, netIdx, false, true});
        ++plan.wireShapes;
      };
      leg(contact->loc, corner);
      leg(corner, np);
      // Cap the landing node with the enclosure footprint so the wire that
      // leaves the node does not form a sub-minStep neck between the jog
      // metal and the next via's enclosure.
      plan.shapes.push_back({via.topEnc.translate(np.x, np.y), via.topLayer,
                             netIdx, false, true});
      ++plan.wireShapes;
    }
    plan.occupyNodes.push_back(n);
    plan.termNodes.push_back(n);
  }
  return plan;
}

std::vector<Node> DetailedRouter::commitTerms(const TermPlan& plan,
                                              std::vector<RouteShape>& shapes,
                                              RouteStats& stats) {
  for (const RouteShape& s : plan.shapes) placeShape(s, shapes);
  for (const Node& n : plan.occupyNodes) grid_.occupy(n, plan.netIdx);
  stats.skippedTerms += plan.skippedTerms;
  stats.viaCount += plan.viaCount;
  stats.wireShapes += plan.wireShapes;
  return plan.termNodes;
}

bool DetailedRouter::routeNet(int netIdx, const std::vector<Node>& termNodes,
                              std::vector<RouteShape>& shapes,
                              RouteStats& stats) {
  const db::Net& net = design_->nets[netIdx];
  if (termNodes.size() < 2) return termNodes.size() == net.terms.size();

  // Steiner-ish tree: connect each terminal to the union of already-routed
  // nodes.
  std::unordered_map<NodeKey, Node> tree;
  tree.emplace(grid_.keyOf(termNodes[0]), termNodes[0]);
  bool ok = true;
  for (std::size_t i = 1; i < termNodes.size(); ++i) {
    if (tree.count(grid_.keyOf(termNodes[i])) != 0) continue;
    std::vector<Node> path =
        findPath(termNodes[i], tree, netIdx, stats, /*relaxed=*/false);
    if (path.empty()) {
      // Halo conservatism can seal a pin in; retry treating soft blockages
      // as cost. Any resulting violation is counted by the final DRC pass.
      ++stats.relaxedRetries;
      path = findPath(termNodes[i], tree, netIdx, stats, /*relaxed=*/true);
    }
    if (path.empty()) {
      ok = false;
      continue;
    }
    emitPath(path, netIdx, shapes, stats);
    for (const Node& n : path) {
      grid_.occupy(n, netIdx);
      tree.emplace(grid_.keyOf(n), n);
    }
  }
  return ok;
}

std::vector<Node> DetailedRouter::findPath(
    const Node& source, const std::unordered_map<NodeKey, Node>& targets,
    int net, RouteStats& stats, bool relaxed) {
  // Lower bound to the targets' bounding box for A* (admissible and O(1)
  // per expansion regardless of tree size).
  Rect targetBox;
  for (const auto& [key, node] : targets) {
    const Point p = grid_.pointOf(node);
    targetBox = targetBox.merge(Rect(p, p));
  }
  const Coord viaStep = cfg_.viaCost * 100;
  const auto heuristic = [&](const Node& n) {
    const Point p = grid_.pointOf(n);
    return geom::manhattanDist(Rect(p, p), targetBox);
  };

  struct Entry {
    long long f;
    long long g;
    NodeKey key;
    Node node;
  };
  const auto worse = [](const Entry& a, const Entry& b) { return a.f > b.f; };
  std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> open(worse);
  std::unordered_map<NodeKey, long long> bestG;
  std::unordered_map<NodeKey, NodeKey> parent;
  std::unordered_map<NodeKey, Node> nodes;

  const NodeKey srcKey = grid_.keyOf(source);
  open.push({heuristic(source), 0, srcKey, source});
  bestG[srcKey] = 0;
  nodes[srcKey] = source;

  const std::size_t maxExpansions =
      relaxed ? cfg_.maxExpansions * 8 : cfg_.maxExpansions;
  const int maxLayer = cfg_.maxLayer >= 0
                           ? cfg_.maxLayer
                           : static_cast<int>(design_->tech->layers().size());
  int minLayer = 0;
  if (cfg_.reserveBottomLayer) {
    for (const db::Layer& l : design_->tech->layers()) {
      if (l.type == db::LayerType::kRouting) {
        minLayer = design_->tech->routingLayerAbove(l.index);
        break;
      }
    }
  }
  std::size_t expansions = 0;
  NodeKey goal = 0;
  bool found = false;

  while (!open.empty() && expansions < maxExpansions) {
    const Entry cur = open.top();
    open.pop();
    if (cur.g != bestG[cur.key]) continue;
    ++expansions;
    if (targets.count(cur.key) != 0) {
      goal = cur.key;
      found = true;
      break;
    }

    // Soft-blockage penalty in relaxed mode: worth roughly a 50-pitch legal
    // detour — enough to prefer clean paths without flooding the whole free
    // space before accepting a crossing.
    const long long blockPenalty = relaxed ? 20000 : 0;
    const auto consider = [&](Node next, long long stepCost,
                              bool viaMove = false) {
      if (!grid_.valid(next)) return;
      if (next.layer > maxLayer || next.layer < minLayer) return;
      const NodeKey key = grid_.keyOf(next);
      const bool isTarget = targets.count(key) != 0;
      if (!isTarget) {
        const int occ = grid_.occupant(next);
        if (occ != RoutingGrid::kFree && occ != net) return;
        const bool softBlocked =
            grid_.blockedFor(next, net) ||
            (viaMove && (grid_.viaBlockedFor(next, net) ||
                         grid_.viaBlockedFor(
                             {cur.node.layer, next.xi, next.yi}, net)));
        if (softBlocked) {
          if (!relaxed) return;
          // Crossing an obstruction's halo means real metal overlap is
          // likely, not just a spacing risk: much more expensive.
          stepCost +=
              grid_.hardBlocked(next) ? 8 * blockPenalty : blockPenalty;
        }
      }
      const long long g = cur.g + stepCost;
      const auto it = bestG.find(key);
      if (it != bestG.end() && it->second <= g) return;
      bestG[key] = g;
      parent[key] = cur.key;
      nodes[key] = next;
      open.push({g + heuristic(next), g, key, next});
    };

    const Node& n = cur.node;
    if (grid_.horizontal(n.layer)) {
      if (n.xi > 0) {
        consider({n.layer, n.xi - 1, n.yi},
                 grid_.xs()[n.xi] - grid_.xs()[n.xi - 1]);
      }
      if (n.xi + 1 < static_cast<int>(grid_.xs().size())) {
        consider({n.layer, n.xi + 1, n.yi},
                 grid_.xs()[n.xi + 1] - grid_.xs()[n.xi]);
      }
    } else {
      if (n.yi > 0) {
        consider({n.layer, n.xi, n.yi - 1},
                 grid_.ys()[n.yi] - grid_.ys()[n.yi - 1]);
      }
      if (n.yi + 1 < static_cast<int>(grid_.ys().size())) {
        consider({n.layer, n.xi, n.yi + 1},
                 grid_.ys()[n.yi + 1] - grid_.ys()[n.yi]);
      }
    }
    // Vias to the routing layers directly above/below (skipping cut layers).
    const int above = design_->tech->routingLayerAbove(n.layer);
    if (above >= 0) consider({above, n.xi, n.yi}, viaStep, /*viaMove=*/true);
    for (int below = n.layer - 1; below >= 0; --below) {
      if (design_->tech->layer(below).type == db::LayerType::kRouting) {
        consider({below, n.xi, n.yi}, viaStep, /*viaMove=*/true);
        break;
      }
    }
  }

  if (!found) {
    if (expansions >= maxExpansions) {
      ++stats.searchCapAborts;
    } else {
      ++stats.searchExhausted;
    }
    return {};
  }
  std::vector<Node> path;
  for (NodeKey key = goal;; key = parent[key]) {
    path.push_back(nodes[key]);
    if (key == srcKey) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void DetailedRouter::emitPath(const std::vector<Node>& path, int net,
                              std::vector<RouteShape>& shapes,
                              RouteStats& stats) {
  // Merge runs of same-layer nodes into wire rects; emit a default via at
  // every layer change. Sub-min-area runs are fixed afterwards by the
  // repairMinArea pass, which sees the final merged components.
  std::size_t runStart = 0;
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i < path.size() && path[i].layer == path[runStart].layer) continue;
    const int runLayer = path[runStart].layer;
    const db::Layer& layer = design_->tech->layer(runLayer);
    const Coord half = layer.width / 2;
    if (i - runStart >= 2) {
      const Point a = grid_.pointOf(path[runStart]);
      const Point b = grid_.pointOf(path[i - 1]);
      const Rect wire{std::min(a.x, b.x) - half, std::min(a.y, b.y) - half,
                      std::max(a.x, b.x) + half, std::max(a.y, b.y) + half};
      placeShape({wire, runLayer, net, false}, shapes);
      ++stats.wireShapes;
    }
    if (i == path.size()) break;
    // Layer change between i-1 and i: drop the default via.
    const int lo = std::min(path[i - 1].layer, path[i].layer);
    const int hi = std::max(path[i - 1].layer, path[i].layer);
    const Point at = grid_.pointOf(path[i]);
    for (const db::ViaDef* via : design_->tech->viaDefsFromLayer(lo)) {
      if (via->topLayer == hi) {
        placeShape({via->botEncAt(at), via->botLayer, net, true}, shapes);
        placeShape({via->cutAt(at), via->cutLayer, net, true}, shapes);
        placeShape({via->topEncAt(at), via->topLayer, net, true}, shapes);
        ++stats.viaCount;
        break;
      }
    }
    runStart = i;
  }
}

}  // namespace pao::router
