#include "db/unique_inst.hpp"

#include <algorithm>
#include <utility>

#include "util/jobs.hpp"

namespace pao::db {

std::vector<Coord> trackOffsets(const Design& design, const Instance& inst) {
  std::vector<Coord> offsets;
  offsets.reserve(design.trackPatterns.size());
  for (const TrackPattern& tp : design.trackPatterns) {
    if (tp.step <= 0) {
      offsets.push_back(0);
      continue;
    }
    const Coord v =
        tp.axis == Dir::kHorizontal ? inst.origin.y : inst.origin.x;
    const Coord m = (v - tp.start) % tp.step;
    offsets.push_back(m < 0 ? m + tp.step : m);
  }
  return offsets;
}

Signature signatureOf(const Design& design, const Instance& inst) {
  return {inst.master, inst.orient, trackOffsets(design, inst)};
}

UniqueInstanceIndex::UniqueInstanceIndex(const Design& design, int numThreads)
    : design_(&design) {
  const std::size_t n = design.instances.size();
  // Fixed shard target, like DrcEngine's rangeChunks: the shard (= job)
  // count must depend only on the design, never on the worker count, so
  // pao.jobs.executed stays thread-invariant. Shards stay coarse (at
  // least ~1k instances each): the merge is one map probe per
  // *shard-local class*, so per-shard overhead is set by the class
  // count, not the instance count.
  constexpr std::size_t kShardTarget = 64;
  const std::size_t numShards = std::min(kShardTarget, n / 1024 + 1);

  struct Shard {
    /// Signature -> shard-local class id, dense in shard-local
    /// first-appearance order.
    std::map<Signature, int> local;
    std::vector<int> firstOf;       ///< local class id -> first member
    std::vector<int> localClassOf;  ///< per instance of the shard
    std::vector<int> classOf;       ///< local class id -> class index
  };
  std::vector<Shard> shards(numShards);
  const auto scan = [&](std::size_t s) {
    Shard& sh = shards[s];
    const std::size_t begin = n * s / numShards;
    const std::size_t end = n * (s + 1) / numShards;
    sh.localClassOf.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      const auto [it, added] =
          sh.local.emplace(signatureOf(design, design.instances[i]),
                           static_cast<int>(sh.firstOf.size()));
      if (added) sh.firstOf.push_back(static_cast<int>(i));
      sh.localClassOf.push_back(it->second);
    }
  };
  // One shard runs inline: a small design adds no job-graph job.
  if (numShards == 1) {
    scan(0);
  } else {
    util::JobGraph graph;
    graph.addJobRange(numShards, scan);
    graph.run(numThreads);
  }

  // Canonical merge: shards in instance order, each shard's new signatures
  // in shard-local first-appearance order. A signature's class is created
  // when the FIRST shard containing it merges, with that shard's first
  // member as its representative, so the class sequence equals the serial
  // first-appearance sequence. Members then fill by ascending instance
  // index — the serial convention.
  for (Shard& sh : shards) {
    for (const int first : sh.firstOf) {
      Signature sig = signatureOf(design, design.instances[first]);
      const auto it = classIdx_.find(sig);
      sh.classOf.push_back(it != classIdx_.end()
                               ? it->second
                               : addClass(std::move(sig), first));
    }
  }
  ui_.classOf.reserve(n);
  for (const Shard& sh : shards) {
    for (const int local : sh.localClassOf) {
      const int i = static_cast<int>(ui_.classOf.size());
      UniqueInstance& cls = ui_.classes[sh.classOf[local]];
      ui_.classOf.push_back(sh.classOf[local]);
      if (cls.representative != i) cls.members.push_back(i);
    }
  }
}

int UniqueInstanceIndex::addClass(Signature sig, int first) {
  const int c = static_cast<int>(ui_.classes.size());
  classIdx_.emplace(sig, c);
  ui_.classes.push_back({std::move(sig), first, {first}});
  return c;
}

int UniqueInstanceIndex::attach(int instIdx) {
  Signature sig = signatureOf(*design_, design_->instances[instIdx]);
  const auto it = classIdx_.find(sig);
  if (it == classIdx_.end()) return addClass(std::move(sig), instIdx);
  UniqueInstance& cls = ui_.classes[it->second];
  cls.members.insert(
      std::lower_bound(cls.members.begin(), cls.members.end(), instIdx),
      instIdx);
  cls.representative = cls.members.front();
  return it->second;
}

void UniqueInstanceIndex::detach(int instIdx, int cls) {
  UniqueInstance& c = ui_.classes[cls];
  std::erase(c.members, instIdx);
  c.representative = c.members.empty() ? -1 : c.members.front();
}

UniqueInstanceIndex::Reclass UniqueInstanceIndex::update(int instIdx) {
  Reclass r;
  r.oldClass = ui_.classOf[instIdx];
  detach(instIdx, r.oldClass);
  r.newClass = attach(instIdx);
  ui_.classOf[instIdx] = r.newClass;
  return r;
}

int UniqueInstanceIndex::add(int instIdx) {
  const int cls = attach(instIdx);
  ui_.classOf.push_back(cls);
  return cls;
}

int UniqueInstanceIndex::remove(int instIdx) {
  const int cls = ui_.classOf[instIdx];
  detach(instIdx, cls);
  ui_.classOf.erase(ui_.classOf.begin() + instIdx);
  for (UniqueInstance& c : ui_.classes) {
    for (int& m : c.members) {
      if (m > instIdx) --m;
    }
    if (c.representative > instIdx) --c.representative;
  }
  return cls;
}

}  // namespace pao::db
