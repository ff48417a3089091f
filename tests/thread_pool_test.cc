#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace litegpu {
namespace {

TEST(ResolveThreads, PositivePassesThrough) {
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(7), 7);
}

TEST(ResolveThreads, NonPositiveUsesHardwareConcurrency) {
  EXPECT_GE(ResolveThreads(0), 1);
  EXPECT_GE(ResolveThreads(-3), 1);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(4, 1000, [&](int i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPool, ResultsCollectedInIndexOrder) {
  auto squares = ParallelMap<int>(4, 256, [](int i) { return i * i; });
  ASSERT_EQ(squares.size(), 256u);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ThreadPool, OneVsManyThreadsProduceIdenticalResults) {
  auto work = [](int i) { return 1.0 / (i + 1.0) * (i % 7); };
  auto serial = ParallelMap<double>(1, 500, work);
  auto parallel = ParallelMap<double>(8, 500, work);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << i;  // bitwise, not approximate
  }
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexException) {
  // Indices 100 and 400 both throw; the lowest must win deterministically
  // even though a later index may fail first on another lane.
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      ParallelFor(4, 500, [](int i) {
        if (i == 100 || i == 400) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 100");
    }
  }
}

TEST(ThreadPool, OtherIndicesStillRunWhenOneThrows) {
  // Inline and lane paths share the semantics: all indices execute, the
  // lowest-index exception propagates afterwards.
  for (int threads : {1, 4}) {
    std::vector<std::atomic<int>> hits(64);
    try {
      ParallelFor(threads, 64, [&](int i) {
        hits[i].fetch_add(1);
        if (i == 7 || i == 40) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 7") << threads;
    }
    int total = 0;
    for (const auto& hit : hits) {
      total += hit.load();
    }
    EXPECT_EQ(total, 64) << threads;
  }
}

TEST(ThreadPool, HandlesEmptyAndSingleRanges) {
  int calls = 0;
  ParallelFor(4, 0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(4, 1, [&](int i) {
    EXPECT_EQ(i, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, MoreThreadsThanWork) {
  auto out = ParallelMap<int>(16, 3, [](int i) { return i + 1; });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadPool, NestedCallInALaneRunsOnThatLane) {
  constexpr int kOuter = 8;
  constexpr int kInner = 16;
  std::vector<std::thread::id> outer(kOuter);
  std::vector<std::thread::id> inner(kOuter * kInner);
  ParallelFor(4, kOuter, [&](int i) {
    outer[i] = std::this_thread::get_id();
    ParallelFor(4, kInner,
                [&](int j) { inner[i * kInner + j] = std::this_thread::get_id(); });
  });
  for (int i = 0; i < kOuter; ++i) {
    EXPECT_NE(outer[i], std::this_thread::get_id()) << i;
    for (int j = 0; j < kInner; ++j) {
      EXPECT_EQ(inner[i * kInner + j], outer[i]) << i << "," << j;
    }
  }
}

TEST(ThreadPool, NestedCallInTheInlinePathStartsNoLane) {
  // A one-thread call over two indices is still a fan-out: what its body
  // calls, even under a one-index call, stays on the calling thread.
  std::atomic<int> ran{0};
  uint64_t before = ThreadPoolWorkersSpawned();
  ParallelFor(1, 2, [&](int) {
    ParallelFor(4, 8, [&](int) { ran.fetch_add(1); });
    ParallelFor(4, 1, [&](int) { ParallelFor(4, 8, [&](int) { ran.fetch_add(1); }); });
  });
  EXPECT_EQ(ThreadPoolWorkersSpawned() - before, 0u);
  EXPECT_EQ(ran.load(), 32);
  // The rule ends with the call: a fan-out after it starts its lanes.
  ParallelFor(2, 4, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ThreadPoolWorkersSpawned() - before, 2u);
}

TEST(ThreadPool, OneIndexCallLeavesItsBodyFreeToFanOut) {
  std::atomic<int> ran{0};
  uint64_t before = ThreadPoolWorkersSpawned();
  ParallelFor(4, 1, [&](int) { ParallelFor(2, 8, [&](int) { ran.fetch_add(1); }); });
  EXPECT_EQ(ThreadPoolWorkersSpawned() - before, 2u);
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace litegpu
