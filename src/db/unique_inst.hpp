// Unique instances (paper Sec. II-A): instances sharing the same signature —
// (cell master, orientation, offsets to every track pattern in the design) —
// have identical intra-cell pin access and are analyzed once.
#pragma once

#include <compare>
#include <map>
#include <vector>

#include "db/design.hpp"

namespace pao::db {

/// The unique-instance key: instances with equal signatures get one class.
struct Signature {
  const Master* master = nullptr;
  geom::Orient orient = geom::Orient::R0;
  /// One offset per design track pattern: the instance origin coordinate
  /// (x for vertical-axis patterns, y for horizontal) modulo the track step.
  std::vector<Coord> offsets;
  auto operator<=>(const Signature&) const = default;
};

/// The signature of a placed instance.
Signature signatureOf(const Design& design, const Instance& inst);
/// The track-offset part of an instance's signature.
std::vector<Coord> trackOffsets(const Design& design, const Instance& inst);

/// One class: its signature plus the placed instances that share it.
struct UniqueInstance : Signature {
  /// Index of a representative placed instance in Design::instances.
  int representative = -1;
  /// All placed instances sharing this signature.
  std::vector<int> members;
  bool operator==(const UniqueInstance&) const = default;
};

struct UniqueInstances {
  std::vector<UniqueInstance> classes;
  /// instIdx -> index into `classes`.
  std::vector<int> classOf;
  bool operator==(const UniqueInstances&) const = default;
};

/// Groups Design::instances into unique-instance classes and keeps them
/// consistent under the Design mutation API. Filler cells (masters with no
/// signal pins) still get classes — they participate in boundary DRC — but
/// callers typically skip them for access analysis.
///
/// The initial build is sharded: contiguous instance ranges are signatured
/// into per-shard maps on a util::JobGraph, then merged in shard order (each
/// shard's new signatures in shard-local first-appearance order). That
/// merge reproduces the serial first-appearance order, so class indices —
/// and everything keyed by them — are identical at any thread or shard count
/// (tests/reference_unique_inst.cpp keeps the serial loop this is tested
/// against). Mutations stay serial. Two invariants make the index usable as
/// the backbone of per-class caches:
///   * Class indices are stable for the lifetime of the index. A class whose
///     last member leaves stays allocated (empty members, representative -1)
///     and is revived when an instance with its signature reappears, so
///     results keyed by class index (Steps 1-2 access, Step-3 pair memos)
///     survive arbitrary mutation sequences.
///   * `members` is kept sorted ascending and `representative` is always
///     members.front() — the lowest-index convention of the initial build,
///     so a fresh index over the mutated design picks the same
///     representative for every populated signature.
class UniqueInstanceIndex {
 public:
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
  /// Appends a class for `sig` whose first (and representative) member is
  /// `first`; returns its index.
  int addClass(Signature sig, int first);
  /// Class for `inst`'s signature, creating (or reviving) one as needed and
  /// attaching `instIdx` to it.
  int attach(int instIdx);
  void detach(int instIdx, int cls);

  const Design* design_;
  UniqueInstances ui_;
  std::map<Signature, int> classIdx_;
};

}  // namespace pao::db
