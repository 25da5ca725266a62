// Name -> position lookup over a caller-owned array of named items (design
// instances, IO pins). The table holds (hash, position) slots only and
// reads names back through the caller's accessor, so it owns no string
// storage, copies as one plain vector, and a lookup by std::string_view
// constructs nothing.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace pao::util {

class NameIndex {
 public:
  /// Empties the index and sizes it for `n` names.
  void reset(std::size_t n) {
    slots_.assign(std::bit_ceil(n * 10 / 7 + 16), Slot{});
    size_ = 0;
  }

  /// Maps `name` to `pos`, replacing an earlier mapping of the same name:
  /// the last insert wins. `nameOf(i)` returns the name of item i for every
  /// position inserted so far.
  template <typename NameOf>
  void insert(std::string_view name, int pos, const NameOf& nameOf) {
    if ((size_ + 1) * 10 > slots_.size() * 7) grow();
    const std::uint32_t h = hash(name);
    Slot& s = slots_[probe(name, h, nameOf)];
    if (s.pos < 0) ++size_;
    s = {h, pos};
  }

  /// Position mapped to `name`, or -1.
  template <typename NameOf>
  int find(std::string_view name, const NameOf& nameOf) const {
    return slots_.empty() ? -1 : slots_[probe(name, hash(name), nameOf)].pos;
  }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    int pos = -1;  ///< -1: empty
  };

  static std::uint32_t hash(std::string_view s) {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(s));
  }

  /// The slot mapping `name`, or the empty slot where it would go.
  template <typename NameOf>
  std::size_t probe(std::string_view name, std::uint32_t h,
                    const NameOf& nameOf) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    while (slots_[i].pos >= 0 &&
           (slots_[i].hash != h || nameOf(slots_[i].pos) != name)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Doubles the table, re-placing every slot by its stored hash.
  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(16, slots_.size() * 2));
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.pos < 0) continue;
      std::size_t i = s.hash & mask;
      while (slots_[i].pos >= 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two open addressing, linear probe
  std::size_t size_ = 0;     ///< occupied slots
};

}  // namespace pao::util
