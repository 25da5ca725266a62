// The chunked thread-pool executor underpinning every parallel path
// (DrcEngine::checkAll, oracle Steps 1-3, router planning): deterministic
// result ordering, schedule-independent exception propagation, thread-count
// resolution and nested-call degradation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/jobs.hpp"

namespace pao::util {
namespace {

TEST(ResolveThreads, PositiveIsIdentity) {
  EXPECT_EQ(resolveThreads(1), 1);
  EXPECT_EQ(resolveThreads(4), 4);
  EXPECT_EQ(resolveThreads(17), 17);
}

TEST(ResolveThreads, ZeroAndNegativeMeanHardwareConcurrency) {
  const int hw = resolveThreads(0);
  EXPECT_GE(hw, 1);
  const unsigned reported = std::thread::hardware_concurrency();
  if (reported > 0) {
    EXPECT_EQ(hw, static_cast<int>(reported));
  }
  EXPECT_EQ(resolveThreads(-3), hw);
}

TEST(ParallelFor, ZeroTasksIsANoOp) {
  parallelFor(0, [](std::size_t) { FAIL() << "fn must not run for n == 0"; },
              4);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (int threads : {1, 2, 4, 0}) {
    std::vector<std::atomic<int>> hits(100);
    parallelFor(hits.size(), [&](std::size_t i) { hits[i]++; }, threads);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, SlotWritesYieldCallerOrderedResults) {
  // The determinism contract the adopters rely on: each task writes result
  // slot i, so the output vector is identical for any thread count.
  const auto runWith = [](int threads) {
    std::vector<int> out(200, -1);
    parallelFor(out.size(),
                [&](std::size_t i) { out[i] = static_cast<int>(i) * 3 + 1; },
                threads);
    return out;
  };
  const std::vector<int> serial = runWith(1);
  EXPECT_EQ(runWith(2), serial);
  EXPECT_EQ(runWith(4), serial);
  EXPECT_EQ(runWith(0), serial);
}

TEST(ParallelFor, LowestFailingIndexWins) {
  // Several tasks throw; the rethrown exception must be the lowest failing
  // index regardless of schedule, and every non-throwing index still runs.
  for (int threads : {1, 4}) {
    std::vector<std::atomic<int>> hits(64);
    try {
      parallelFor(
          hits.size(),
          [&](std::size_t i) {
            hits[i]++;
            if (i == 11 || i == 37 || i == 60) {
              throw std::runtime_error("task " + std::to_string(i));
            }
          },
          threads);
      FAIL() << "expected rethrow (threads " << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 11") << "threads " << threads;
    }
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, NonStdExceptionIsPropagated) {
  EXPECT_THROW(
      parallelFor(8, [](std::size_t i) { if (i == 3) throw 42; }, 4), int);
}

TEST(ParallelFor, NestedCallsDegradeToSerial) {
  // A task body calling parallelFor again must not deadlock or oversubscribe;
  // the inner call runs serially on the worker thread.
  std::atomic<int> total{0};
  parallelFor(
      8,
      [&](std::size_t) {
        parallelFor(16, [&](std::size_t) { total++; }, 4);
      },
      4);
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelFor, MoreThreadsThanTasks) {
  std::vector<int> out(3, 0);
  parallelFor(out.size(), [&](std::size_t i) { out[i] = 7; }, 16);
  EXPECT_EQ(out, (std::vector<int>{7, 7, 7}));
}

TEST(ParallelFor, StressUnevenTaskCosts) {
  // Dynamic scheduling over wildly uneven tasks: a handful of heavy indices
  // among many trivial ones. Checks the checksum matches serial execution.
  const std::size_t n = 500;
  const auto runWith = [&](int threads) {
    std::vector<long long> out(n, 0);
    parallelFor(
        n,
        [&](std::size_t i) {
          long long acc = static_cast<long long>(i);
          const long long iters = (i % 97 == 0) ? 200000 : 50;
          for (long long k = 0; k < iters; ++k) acc = (acc * 1103515245 + i) % 1000003;
          out[i] = acc;
        },
        threads);
    return std::accumulate(out.begin(), out.end(), 0LL);
  };
  const long long serial = runWith(1);
  EXPECT_EQ(runWith(4), serial);
  EXPECT_EQ(runWith(0), serial);
}

}  // namespace
}  // namespace pao::util
