#include "pao/pattern_gen.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "util/arena.hpp"

namespace pao::core {

namespace {
constexpr long long kInf = std::numeric_limits<long long>::max() / 4;
}

PatternGenerator::PatternGenerator(
    const InstContext& ctx, const std::vector<std::vector<AccessPoint>>& pinAps,
    PatternGenConfig cfg)
    : ctx_(&ctx), pinAps_(&pinAps), cfg_(cfg) {
  // Pin ordering (Sec. III-B): sort by xavg + alpha * yavg of each pin's
  // access points; pins without access points cannot join any pattern.
  std::vector<std::pair<double, int>> keys;
  for (int i = 0; i < static_cast<int>(pinAps.size()); ++i) {
    if (pinAps[i].empty()) continue;
    double xs = 0;
    double ys = 0;
    for (const AccessPoint& ap : pinAps[i]) {
      xs += static_cast<double>(ap.loc.x);
      ys += static_cast<double>(ap.loc.y);
    }
    const double n = static_cast<double>(pinAps[i].size());
    keys.emplace_back(xs / n + cfg_.alpha * (ys / n), i);
  }
  std::sort(keys.begin(), keys.end());
  order_.reserve(keys.size());
  for (const auto& [key, idx] : keys) order_.push_back(idx);
}

long long PatternGenerator::apCost(int pin, int ap) const {
  const AccessPoint& a = (*pinAps_)[pin][ap];
  return a.typeCost();
}

bool PatternGenerator::pairClean(int pinA, int apA, int pinB, int apB) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(pinA) << 48) |
      (static_cast<std::uint64_t>(apA) << 32) |
      (static_cast<std::uint64_t>(pinB) << 16) | static_cast<std::uint64_t>(apB);
  const auto it = pairCleanCache_.find(key);
  if (it != pairCleanCache_.end()) return it->second;

  const AccessPoint& a = (*pinAps_)[pinA][apA];
  const AccessPoint& b = (*pinAps_)[pinB][apB];
  const db::Tech& tech = *ctx_->design().tech;
  bool clean = true;
  // Only up-vias participate in pattern-stage DRC (Sec. III-B, last para).
  if (a.primaryVia(tech) != nullptr && b.primaryVia(tech) != nullptr) {
    ++numPairChecks_;
    const std::vector<int>& sig = ctx_->signalPins();
    clean =
        ctx_->engine()
            .checkViaPair(*a.primaryVia(tech), a.loc, ctx_->pinNet(sig[pinA]),
                          *b.primaryVia(tech), b.loc, ctx_->pinNet(sig[pinB]))
            .empty();
  }
  pairCleanCache_.emplace(key, clean);
  return clean;
}

long long PatternGenerator::edgeCost(int prevPin, int prevAp, int curPin,
                                     int curAp, int prevPrevPin,
                                     int prevPrevAp) {
  // Algorithm 3, in order: boundary-pin reuse penalties, neighbor DRC,
  // history DRC one pin further back, then plain access-point quality.
  if (cfg_.boundaryAware) {
    const auto used = [&](int pin, int ap) {
      return std::find(usedBoundaryAps_.begin(), usedBoundaryAps_.end(),
                       std::make_pair(pin, ap)) != usedBoundaryAps_.end();
    };
    // prev/curr are boundary pins iff they sit at the ends of the order.
    if (prevPin == order_.front() && used(prevPin, prevAp)) {
      return cfg_.penaltyCost;
    }
    if (curPin == order_.back() && used(curPin, curAp)) {
      return cfg_.penaltyCost;
    }
  }
  if (!pairClean(prevPin, prevAp, curPin, curAp)) return cfg_.drcCost;
  if (cfg_.historyAware && prevPrevPin >= 0 &&
      !pairClean(prevPrevPin, prevPrevAp, curPin, curAp)) {
    return cfg_.drcCost;
  }
  return apCost(prevPin, prevAp) + apCost(curPin, curAp);
}

std::vector<AccessPattern> PatternGenerator::run() {
  std::vector<AccessPattern> patterns;
  if (order_.empty()) return patterns;
  const int numOrdered = static_cast<int>(order_.size());
  const db::Tech& tech = *ctx_->design().tech;

  // Flat DP layout (ROADMAP item 2): pin m's AP states occupy
  // [off[m], off[m+1]) of one contiguous cost/prev pair instead of a
  // vector-of-vectors — two bumps in the worker's scratch arena per
  // iteration instead of 2*(numOrdered+1) heap round-trips.
  util::ArenaScope runScratch(util::scratchArena());
  util::ArenaVector<int> off(static_cast<std::size_t>(numOrdered) + 1, 0);
  for (int m = 0; m < numOrdered; ++m) {
    off[m + 1] = off[m] + static_cast<int>((*pinAps_)[order_[m]].size());
  }
  const int total = off[numOrdered];

  for (int iter = 0; iter < cfg_.numPatterns; ++iter) {
    // Per-iteration scratch dies at the bottom of the loop body.
    util::ArenaScope iterScratch(util::scratchArena());
    util::ArenaVector<long long> cost(static_cast<std::size_t>(total), kInf);
    util::ArenaVector<int> prev(static_cast<std::size_t>(total), -1);

    // Source layer: entering the first pin costs its AP cost (plus the
    // boundary penalty when this boundary AP was already consumed).
    for (int n = 0; n < off[1]; ++n) {
      long long c = apCost(order_[0], n);
      if (cfg_.boundaryAware &&
          std::find(usedBoundaryAps_.begin(), usedBoundaryAps_.end(),
                    std::make_pair(order_[0], n)) != usedBoundaryAps_.end()) {
        c = cfg_.penaltyCost;
      }
      cost[n] = c;
    }

    for (int m = 1; m < numOrdered; ++m) {
      const int curPin = order_[m];
      const int prevPin = order_[m - 1];
      const int nCur = off[m + 1] - off[m];
      const int nPrev = off[m] - off[m - 1];
      for (int n = 0; n < nCur; ++n) {
        for (int np = 0; np < nPrev; ++np) {
          if (cost[off[m - 1] + np] >= kInf) continue;
          // The predecessor of `np` is already fixed — the history pair is
          // deterministic (paper Sec. III-B).
          const int prevPrevAp = m >= 2 ? prev[off[m - 1] + np] : -1;
          const int prevPrevPin = m >= 2 ? order_[m - 2] : -1;
          const long long ec = edgeCost(prevPin, np, curPin, n,
                                        prevPrevAp >= 0 ? prevPrevPin : -1,
                                        prevPrevAp);
          const long long totalCost = cost[off[m - 1] + np] + ec;
          if (totalCost < cost[off[m] + n]) {
            cost[off[m] + n] = totalCost;
            prev[off[m] + n] = np;
          }
        }
      }
    }

    // Trace back from the cheapest terminal vertex.
    const int last = numOrdered - 1;
    int bestN = -1;
    long long bestCost = kInf;
    for (int n = 0; n < off[last + 1] - off[last]; ++n) {
      if (cost[off[last] + n] < bestCost) {
        bestCost = cost[off[last] + n];
        bestN = n;
      }
    }
    if (bestN < 0) break;

    AccessPattern pat;
    pat.apIdx.assign(pinAps_->size(), -1);
    pat.cost = bestCost;
    int n = bestN;
    for (int m = last; m >= 0; --m) {
      pat.apIdx[order_[m]] = n;
      n = prev[off[m] + n];
    }

    // Reject duplicates (the penalty mechanism usually prevents them, but a
    // cell with one AP per pin can only ever produce one pattern).
    const auto dup = std::find_if(
        patterns.begin(), patterns.end(),
        [&](const AccessPattern& p) { return p.apIdx == pat.apIdx; });

    // Post-validation (Sec. III-B, last para): drop all primary vias of the
    // pattern simultaneously and look for unseen DRCs — non-neighbor pairs
    // and multi-object interactions the DP assumption missed.
    std::vector<drc::Shape> allVias;
    const std::vector<int>& sig = ctx_->signalPins();
    for (std::size_t i = 0; i < pat.apIdx.size(); ++i) {
      if (pat.apIdx[i] < 0) continue;
      const AccessPoint& ap = (*pinAps_)[i][pat.apIdx[i]];
      if (ap.primaryVia(tech) == nullptr) continue;
      for (const drc::Shape& s : ctx_->engine().viaShapes(
               *ap.primaryVia(tech), ap.loc, ctx_->pinNet(sig[i]))) {
        allVias.push_back(s);
      }
    }
    pat.validated = true;
    for (std::size_t i = 0; i < pat.apIdx.size() && pat.validated; ++i) {
      if (pat.apIdx[i] < 0) continue;
      const AccessPoint& ap = (*pinAps_)[i][pat.apIdx[i]];
      if (ap.primaryVia(tech) == nullptr) continue;
      // Context for this via: every other pin's via shapes.
      std::vector<drc::Shape> others;
      for (const drc::Shape& s : allVias) {
        if (s.net != ctx_->pinNet(sig[i])) others.push_back(s);
      }
      if (!ctx_->engine().isViaClean(*ap.primaryVia(tech), ap.loc,
                                     ctx_->pinNet(sig[i]), others)) {
        pat.validated = false;
      }
    }

    // Mark this pattern's boundary APs as used so the next iteration
    // diversifies the cell-edge access points.
    for (const int pinPos : {order_.front(), order_.back()}) {
      if (pat.apIdx[pinPos] >= 0) {
        usedBoundaryAps_.emplace_back(pinPos, pat.apIdx[pinPos]);
      }
    }

    if (dup == patterns.end() && pat.validated) {
      patterns.push_back(std::move(pat));
    } else if (dup == patterns.end() && patterns.empty()) {
      // Keep a best-effort pattern when nothing validated; Step 3 and the
      // evaluator will surface its failing pins honestly.
      patterns.push_back(std::move(pat));
    }
  }
  PAO_COUNTER_ADD("pao.step2.patterns_generated", patterns.size());
  // The pair-check tally, published once: each class runs one generator,
  // serially, so the total is thread-count-invariant. A counter first
  // written with 0 would enter the snapshot.
  if (numPairChecks_ > 0) {
    PAO_COUNTER_ADD("pao.step2.pair_checks", numPairChecks_);
  }
  return patterns;
}

}  // namespace pao::core
