#include "db/unique_inst.hpp"

#include <algorithm>

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

UniqueInstances extractUniqueInstances(const Design& design) {
  UniqueInstances out;
  out.classOf.assign(design.instances.size(), -1);

  using Key = std::tuple<const Master*, geom::Orient, std::vector<Coord>>;
  std::map<Key, int> classIdx;

  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const Instance& inst = design.instances[i];
    Key key{inst.master, inst.orient, trackOffsets(design, inst)};
    const auto it = classIdx.find(key);
    if (it == classIdx.end()) {
      UniqueInstance ui;
      ui.master = inst.master;
      ui.orient = inst.orient;
      ui.offsets = std::get<2>(key);
      ui.representative = i;
      ui.members.push_back(i);
      classIdx.emplace(std::move(key), static_cast<int>(out.classes.size()));
      out.classOf[i] = static_cast<int>(out.classes.size());
      out.classes.push_back(std::move(ui));
    } else {
      out.classes[it->second].members.push_back(i);
      out.classOf[i] = it->second;
    }
  }
  return out;
}

UniqueInstances extractUniqueInstances(const Design& design, int numThreads) {
  using Key = std::tuple<const Master*, geom::Orient, std::vector<Coord>>;
  const std::size_t n = design.instances.size();
  // Fixed shard target, like DrcEngine's rangeChunks: the shard (= job)
  // count must depend only on the design, never on the worker count, so
  // pao.jobs.executed stays thread-invariant. Shards stay coarse (at
  // least ~1k instances each): the merge is one map probe per
  // *shard-local class*, so per-shard overhead is set by the class
  // count, not the instance count.
  constexpr std::size_t kShardTarget = 64;
  const std::size_t numShards = std::min<std::size_t>(
      kShardTarget, std::max<std::size_t>(1, n / 1024 + 1));
  if (numShards <= 1) return extractUniqueInstances(design);

  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
    /// Signature -> shard-local class id, local ids dense in shard-local
    /// first-appearance order.
    std::map<Key, int> local;
    std::vector<const Key*> keyOf;  ///< local class id -> signature
    std::vector<int> localClassOf;  ///< per instance in [begin, end)
  };
  std::vector<Shard> shards(numShards);
  for (std::size_t s = 0; s < numShards; ++s) {
    shards[s].begin = n * s / numShards;
    shards[s].end = n * (s + 1) / numShards;
  }

  util::JobGraph graph;
  graph.addJobRange(numShards, [&](std::size_t s) {
    Shard& sh = shards[s];
    sh.localClassOf.reserve(sh.end - sh.begin);
    for (std::size_t i = sh.begin; i < sh.end; ++i) {
      const Instance& inst = design.instances[i];
      Key key{inst.master, inst.orient, trackOffsets(design, inst)};
      const auto [it, added] =
          sh.local.emplace(std::move(key), static_cast<int>(sh.keyOf.size()));
      if (added) sh.keyOf.push_back(&it->first);
      sh.localClassOf.push_back(it->second);
    }
  });
  graph.run(numThreads);

  // Canonical merge: shards in instance order, each shard's new signatures
  // in shard-local first-appearance order. A signature's global class is
  // created when the FIRST shard containing it merges, so the global class
  // sequence equals the serial first-appearance sequence.
  UniqueInstances out;
  out.classOf.assign(n, -1);
  std::map<Key, int> globalIdx;
  std::vector<std::vector<int>> localToGlobal(numShards);
  for (std::size_t s = 0; s < numShards; ++s) {
    Shard& sh = shards[s];
    localToGlobal[s].reserve(sh.keyOf.size());
    for (const Key* key : sh.keyOf) {
      const auto [it, added] =
          globalIdx.emplace(*key, static_cast<int>(out.classes.size()));
      if (added) {
        UniqueInstance ui;
        ui.master = std::get<0>(*key);
        ui.orient = std::get<1>(*key);
        ui.offsets = std::get<2>(*key);
        out.classes.push_back(std::move(ui));
      }
      localToGlobal[s].push_back(it->second);
    }
  }
  // Members fill by ascending instance index — the serial convention —
  // and the representative is the lowest member.
  for (std::size_t s = 0; s < numShards; ++s) {
    const Shard& sh = shards[s];
    for (std::size_t i = sh.begin; i < sh.end; ++i) {
      const int cls = localToGlobal[s][sh.localClassOf[i - sh.begin]];
      out.classOf[i] = cls;
      out.classes[cls].members.push_back(static_cast<int>(i));
    }
  }
  for (UniqueInstance& cls : out.classes) {
    cls.representative = cls.members.front();
  }
  return out;
}

UniqueInstanceIndex::UniqueInstanceIndex(const Design& design, int numThreads)
    : design_(&design), ui_(extractUniqueInstances(design, numThreads)) {
  buildClassIdx();
}

void UniqueInstanceIndex::buildClassIdx() {
  for (int c = 0; c < static_cast<int>(ui_.classes.size()); ++c) {
    const UniqueInstance& cls = ui_.classes[c];
    classIdx_.emplace(Key{cls.master, cls.orient, cls.offsets}, c);
  }
}

int UniqueInstanceIndex::attach(int instIdx) {
  const Instance& inst = design_->instances[instIdx];
  Key key{inst.master, inst.orient, trackOffsets(*design_, inst)};
  const auto it = classIdx_.find(key);
  if (it == classIdx_.end()) {
    UniqueInstance cls;
    cls.master = inst.master;
    cls.orient = inst.orient;
    cls.offsets = std::get<2>(key);
    cls.representative = instIdx;
    cls.members.push_back(instIdx);
    const int c = static_cast<int>(ui_.classes.size());
    classIdx_.emplace(std::move(key), c);
    ui_.classes.push_back(std::move(cls));
    return c;
  }
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
