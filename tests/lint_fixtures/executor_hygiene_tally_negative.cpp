// Known-negative fixture for the shared-write-in-task half of
// executor-hygiene. NOT compiled; linted as if it lived under src/.
#include <atomic>
#include <cstddef>
#include <vector>

namespace util {
using JobId = unsigned;
template <typename Fn>
void parallelFor(std::size_t n, Fn&& fn, int numThreads);
struct JobGraph {
  template <typename Fn>
  JobId addJob(Fn&& fn);
  void run(int numThreads);
};
}  // namespace util

struct Tally {
  bool ranDp = false;
  std::size_t size = 0;
};
Tally selectOne(std::size_t k);
int exchange(int v);

// Fine: each node returns its tally into its own slot; the slots are merged
// and published once, after the graph has run.
std::size_t scheduleClusters(std::size_t n) {
  std::vector<Tally> tallies(n);
  util::JobGraph graph;
  for (std::size_t k = 0; k < n; ++k) {
    graph.addJob([&tallies, k] { tallies[k] = selectOne(k); });
  }
  graph.run(0);
  std::size_t runs = 0;
  for (const Tally& t : tallies) {
    if (!t.ranDp) continue;
    ++runs;
    PAO_HISTOGRAM_OBSERVE("pao.demo.cluster_size", t.size);
  }
  if (runs > 0) PAO_COUNTER_ADD("pao.demo.cluster_runs", runs);
  return runs;
}

struct Latch {
  std::atomic<bool> expired{false};
};

// Fine: a plain load/store latch is synchronisation, not a tally, and a
// free function named like an atomic operation is no member call.
void latchOnly(Latch& latch, std::vector<int>& out) {
  util::parallelFor(
      out.size(),
      [&](std::size_t i) {
        if (latch.expired.load()) return;
        if (out[i] < 0) latch.expired.store(true);
        out[i] = exchange(out[i]);
      },
      4);
}

// Fine: a registry macro outside any task body.
void afterJoin() { PAO_COUNTER_INC("pao.demo.joins"); }
