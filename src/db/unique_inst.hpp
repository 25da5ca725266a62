// Unique-instance extraction (paper Sec. II-A): instances sharing the same
// signature — (cell master, orientation, offsets to every track pattern in
// the design) — have identical intra-cell pin access and are analyzed once.
#pragma once

#include <map>
#include <tuple>
#include <vector>

#include "db/design.hpp"

namespace pao::db {

struct UniqueInstance {
  const Master* master = nullptr;
  geom::Orient orient = geom::Orient::R0;
  /// One offset per design track pattern: the instance origin coordinate
  /// (x for vertical-axis patterns, y for horizontal) modulo the track step.
  std::vector<Coord> offsets;
  /// Index of a representative placed instance in Design::instances.
  int representative = -1;
  /// All placed instances sharing this signature.
  std::vector<int> members;
};

struct UniqueInstances {
  std::vector<UniqueInstance> classes;
  /// instIdx -> index into `classes` (-1 for non-core masters if skipped).
  std::vector<int> classOf;
};

/// Groups Design::instances into unique-instance classes. Filler cells
/// (masters with no signal pins) still get classes — they participate in
/// boundary DRC — but callers typically skip them for access analysis.
UniqueInstances extractUniqueInstances(const Design& design);

/// Sharded parallel extraction: contiguous instance ranges are signatured
/// into per-shard maps on a util::JobGraph, then merged canonically in
/// shard order (each shard's new signatures in shard-local first-appearance
/// order). That merge order reproduces the serial first-appearance order
/// exactly, so class indices — and everything keyed by them — are
/// byte-identical to extractUniqueInstances(design) at any thread or shard
/// count (tests/test_stream_parse.cpp locks this).
UniqueInstances extractUniqueInstances(const Design& design, int numThreads);

/// The track-offset part of an instance's signature.
std::vector<Coord> trackOffsets(const Design& design, const Instance& inst);

/// Incrementally-maintained unique-instance classes over a mutating design
/// (the batch equivalent of extractUniqueInstances, kept consistent under
/// the Design mutation API). Two invariants make it usable as the backbone
/// of per-class caches:
///   * Class indices are stable for the lifetime of the index. A class whose
///     last member leaves stays allocated (empty members, representative -1)
///     and is revived when an instance with its signature reappears, so
///     results keyed by class index (Steps 1-2 access, Step-3 pair memos)
///     survive arbitrary mutation sequences.
///   * `members` is kept sorted ascending and `representative` is always
///     members.front() — the same lowest-index convention batch extraction
///     uses, so a fresh extractUniqueInstances on the mutated design picks
///     the same representative for every populated signature.
class UniqueInstanceIndex {
 public:
  /// Builds the initial classes with the sharded parallel extraction
  /// (identical result at any thread count); mutations stay serial.
  UniqueInstanceIndex(const Design& design, int numThreads);

  const UniqueInstances& classes() const { return ui_; }
  int classOf(int instIdx) const { return ui_.classOf[instIdx]; }

  struct Reclass {
    int oldClass = -1;
    int newClass = -1;
    bool changed() const { return oldClass != newClass; }
  };
  /// Re-signatures instance `instIdx` after its origin or orientation
  /// changed; maintains members/representative/classOf.
  Reclass update(int instIdx);
  /// Registers a newly appended instance (instIdx == design.instances.size()
  /// - 1); returns its class index (possibly a fresh class).
  int add(int instIdx);
  /// Unregisters `instIdx` (call in step with Design::removeInstance) and
  /// renumbers all stored instance indices above it. Returns the class the
  /// instance left.
  int remove(int instIdx);

 private:
  using Key = std::tuple<const Master*, geom::Orient, std::vector<Coord>>;
  /// Class for `inst`'s signature, creating (or reviving) one as needed and
  /// attaching `instIdx` to it.
  int attach(int instIdx);
  void detach(int instIdx, int cls);
  void buildClassIdx();

  const Design* design_;
  UniqueInstances ui_;
  std::map<Key, int> classIdx_;
};

}  // namespace pao::db
