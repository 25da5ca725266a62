// Known-negative fixture for the shared-atomic half of executor-hygiene.
// NOT compiled. The tests lint it as if it lived under src/.
#include <atomic>
#include <cstddef>

namespace pao::demo {

// A member atomic belongs to its owner: each object has its own line.
class Counter {
 public:
  void hit() {
    hits_.fetch_add(1, std::memory_order_relaxed);
    ++hits_;
    hits_ += 2;
  }
  void reset() { hits_.store(0); }

 private:
  std::atomic<std::size_t> hits_{0};
};

// Reading a shared atomic is fine; only writes contend.
std::atomic<bool> gEnabled{false};
bool enabled() { return gEnabled.load(std::memory_order_relaxed); }

// Pointers to atomics, and another object's member of the same name.
struct Slots {
  int gEnabled = 0;
};
void add(std::atomic<int>* slot, Slots& s) {
  slot->fetch_add(1);
  ++s.gEnabled;
}

// One per thread: no sharing.
thread_local std::atomic<int> tlHits{0};
void tlHit() { ++tlHits; }

// A justified write between runs, not on a hot path.
void setEnabled(bool on) {
  // pao-lint: allow(executor-hygiene): flipped once at startup
  gEnabled.store(on);
}

}  // namespace pao::demo
