// Bump/arena allocation for per-class and per-job scratch (ROADMAP item 2's
// memory half). The hot paths — AP candidate generation, pattern/cluster DP
// tables, DRC shard scratch — allocate many short-lived vectors whose
// lifetimes all end when the enclosing job finishes. An Arena turns each of
// those heap round-trips into a pointer bump inside a reusable block:
//
//   * Arena owns a chain of geometrically-growing blocks. allocate() bumps;
//     nothing is freed until rewind()/reset(), which just resets the bump
//     cursor and keeps the blocks for the next job.
//   * ArenaScope is the lifetime rule: take a watermark on entry, rewind on
//     exit. Scopes nest (inner scratch dies before outer scratch), which is
//     exactly the nesting of job bodies calling helpers.
//   * scratchArena() hands every thread its own Arena, so job bodies never
//     contend. Workers die with their pool; their arenas go with them.
//   * ArenaAllocator<T> adapts an Arena to the std allocator interface so
//     existing std::vector code converts by swapping the allocator
//     (ArenaVector<T>). Deallocation is a no-op — memory dies at scope exit.
//
// Determinism note: bytesRequested() counts one arena's bumps. It is
// schedule-invariant only for work that ran on one thread (a serial run on
// the caller's scratchArena()); across a worker pool the split between
// arenas follows the schedule. It is not registered with the obs metrics
// registry; bench_pipeline reports it. Keeping the count on its arena means
// a bump writes only memory its own thread owns.
//
// bench_pipeline holds the arena's effect as an absolute ceiling on the
// heap allocations of one serial analyze.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace pao::util {

class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 64 * 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() = default;

  /// Bump-allocates `bytes` aligned to `align` (power of two). Grows a new
  /// block when the current one is exhausted; oversize requests get a
  /// dedicated block. Never returns nullptr (throws std::bad_alloc).
  void* allocate(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    bytesRequested_ += bytes;
    while (cur_ < blocks_.size()) {
      Block& b = blocks_[cur_];
      const std::size_t aligned = alignUp(off_, align);
      if (aligned + bytes <= b.size) {
        off_ = aligned + bytes;
        return b.data.get() + aligned;
      }
      // Current block exhausted for this request: move to the next (its
      // cursor starts at 0 — earlier blocks stay live until rewind).
      ++cur_;
      off_ = 0;
    }
    addBlock(bytes + align);
    Block& b = blocks_[cur_];
    const std::size_t aligned = alignUp(0, align);
    off_ = aligned + bytes;
    return b.data.get() + aligned;
  }

  /// Watermark for ArenaScope: (block index, bump offset).
  struct Mark {
    std::size_t block = 0;
    std::size_t offset = 0;
  };

  Mark mark() const { return Mark{cur_, off_}; }

  /// Rewinds the bump cursor to a previously taken mark. Blocks are kept
  /// for reuse; every allocation made after the mark is dead afterwards.
  void rewind(Mark m) {
    cur_ = m.block;
    off_ = m.offset;
  }

  /// Rewinds everything (blocks retained).
  void reset() { rewind(Mark{}); }

  /// Cumulative bytes requested from this arena since construction (see
  /// header comment). Bench-only counter; never decreases on rewind.
  std::uint64_t bytesRequested() const { return bytesRequested_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  static std::size_t alignUp(std::size_t v, std::size_t align) {
    return (v + align - 1) & ~(align - 1);
  }

  void addBlock(std::size_t minBytes) {
    std::size_t size = blocks_.empty() ? kDefaultBlockBytes
                                       : blocks_.back().size * 2;
    if (size < minBytes) size = minBytes;
    blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size});
    cur_ = blocks_.size() - 1;
    off_ = 0;
  }

  std::vector<Block> blocks_;
  std::size_t cur_ = 0;
  std::size_t off_ = 0;
  std::uint64_t bytesRequested_ = 0;
};

/// RAII lifetime rule for arena scratch: everything allocated between
/// construction and destruction dies at destruction. Scopes nest.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(arena), mark_(arena.mark()) {}
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
  ~ArenaScope() { arena_.rewind(mark_); }

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

/// Each thread's private scratch arena. Job bodies reach it through
/// ArenaScope + ArenaVector; no cross-thread sharing, no contention.
inline Arena& scratchArena() {
  thread_local Arena arena;
  return arena;
}

/// std-allocator adapter over the constructing thread's scratch arena.
/// Deallocation is a no-op; the enclosing ArenaScope reclaims.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() : arena_(&scratchArena()) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }

  void deallocate(T*, std::size_t) noexcept {}

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

/// Vector whose backing store lives in the thread's scratch arena. Use
/// inside an ArenaScope; do not return across it.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace pao::util
