// Cross-run cache of intra-cell access analysis, keyed by the unique
// instance signature (master, orientation, track offsets). Because the
// signature fully determines Steps 1-2 (paper Sec. II-A), results survive
// arbitrary placement changes — exactly what an incremental placement loop
// needs: moving one cell invalidates nothing, it merely looks up (or adds)
// the signature at the new location.
//
// Entries are stored origin-relative (representative origin subtracted), so
// a hit is valid for any placement of the signature.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "db/unique_inst.hpp"
#include "pao/cluster_select.hpp"

namespace pao::core {

class AccessCache {
 public:
  /// A db::UniqueInstance is its own key.
  using Key = db::Signature;

  /// Origin-relative entry, or nullptr on miss. find() counts hit/miss
  /// statistics.
  ///
  /// Thread safety: find/store/size/hits/misses/clear are internally
  /// synchronized, so one cache may back many concurrent OracleSessions
  /// (the pao_serve cross-tenant cache). A returned pointer stays valid —
  /// std::map nodes are stable and store() never overwrites a published
  /// entry (first writer wins; any two writers of the same signature
  /// compute identical values, as OracleSession::analyzeClass is
  /// deterministic).
  const ClassAccess* find(const Key& key);
  void store(const Key& key, ClassAccess originRelative);

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  std::size_t hits() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  std::size_t misses() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  void clear();

  /// Shifts every access point of `ca` by `origin`. The flow's one use is
  /// the normalization after Step 2: the representative's negated origin
  /// turns its design coordinates into the origin-relative frame.
  static ClassAccess translate(const ClassAccess& ca, geom::Point origin);

  /// Hash of the tech/library identity a cache is only valid against: layer,
  /// via, and master names plus their key dimensions (layer width/pitch, via
  /// rects, master sizes and pin shapes). Hex string, stable across
  /// processes and platforms.
  static std::string fingerprint(const db::Tech& tech, const db::Library& lib);

  /// Serializes all entries to a line-oriented text format
  /// (`PAO_ACCESS_CACHE v2` with a fingerprint line). Master pointers are
  /// written by name and re-resolved against a Library on load. Entries are
  /// ordered by (master name, orient, offsets), so the output is
  /// byte-identical across processes for the same cache content.
  std::string save(const db::Tech& tech, const db::Library& lib) const;
  /// Merges entries from `text` (produced by save) into this cache. v2 is
  /// all-or-nothing: a fingerprint mismatch, any corruption, a record count
  /// exceeding the bytes present, or a missing/short `END <count>` trailer
  /// rejects the whole file (nothing is merged) with a reason in *errorOut.
  /// Any other header, including the retired fingerprint-less v1, is
  /// rejected the same way.
  /// Returns the number of entries loaded; on rejection, 0.
  std::size_t load(const std::string& text, const db::Tech& tech,
                   const db::Library& lib, std::string* errorOut = nullptr);

 private:
  /// Guards entries_/hits_/misses_. Entry *values* are immutable once
  /// published (store is insert-if-absent), so readers may dereference a
  /// find() result without holding the lock. load/save take the lock for
  /// their whole pass; they are meant for single-threaded setup/teardown.
  mutable std::mutex mu_;
  std::map<Key, ClassAccess> entries_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace pao::core
