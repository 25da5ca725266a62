// Known-positive fixture for the shared-write-in-task half of
// executor-hygiene. NOT compiled. The tests lint it as if it lived under
// src/ (library code), where every task body below writes shared state.
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
  template <typename Fn>
  JobId addJobRange(std::size_t n, Fn&& fn);
  void run(int numThreads);
};
}  // namespace util

struct Selector {
  std::atomic<std::size_t> runs{0};
  std::atomic<bool> started{false};
  std::atomic<long long>* nanos = nullptr;
  void select(std::size_t k);
};

void scheduleClusters(Selector& sel, std::size_t n) {
  util::JobGraph graph;
  for (std::size_t k = 0; k < n; ++k) {
    graph.addJob([&sel, k] {
      sel.runs.fetch_add(1);  // line 32: atomic add in a node body
      bool expected = false;
      sel.started.compare_exchange_strong(expected, true);  // line 34
      PAO_COUNTER_INC("pao.demo.cluster_runs");  // line 35: registry macro
      sel.select(k);
    });
  }
  graph.addJobRange(n, [&](std::size_t k) {
    PAO_HISTOGRAM_OBSERVE("pao.demo.cluster_size", k);  // line 40
    sel.nanos->fetch_add(1);  // line 41: through a pointer
  });
  graph.run(0);
}

void countInParallel(Selector& sel, std::size_t n) {
  util::parallelFor(
      n,
      [&](std::size_t i) {
        PAO_GAUGE_SET("pao.demo.last_index", i);  // line 50
        sel.started.exchange(true);  // line 51
      },
      4);
}
