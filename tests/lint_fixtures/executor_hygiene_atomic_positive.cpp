// Known-positive fixture for the shared-atomic half of executor-hygiene.
// NOT compiled. The tests lint it as if it lived under src/.
#include <atomic>
#include <cstdint>

namespace pao::demo {

std::atomic<std::uint64_t> gBumps{0};
namespace {
std::atomic<int> gLive{0};
}  // namespace

class Pool {
 public:
  static void reset() { gResets.store(0); }
  void bump() { gBumps.fetch_add(1, std::memory_order_relaxed); }

 private:
  inline static std::atomic<long> gResets{0};
};

void touch() {
  static std::atomic<bool> once{false};
  once.exchange(true);
  ++gLive;
  gLive--;
  gBumps += 2;
  gLive |= 4;
  Pool::gResets.fetch_sub(1);
}

}  // namespace pao::demo
