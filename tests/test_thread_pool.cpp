// Parallel execution engine: pool lifecycle, coverage, exception
// propagation, the one-level nesting rule, and the global-pool knobs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace surfos::util {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, HandlesOffsetAndEmptyAndTinyRanges) {
  ThreadPool pool(4);
  std::vector<int> out(10, 0);
  pool.parallel_for(3, 7, [&](std::size_t i) { out[i] = 1; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], (i >= 3 && i < 7) ? 1 : 0) << i;
  }
  pool.parallel_for(5, 5, [&](std::size_t) { FAIL() << "empty range ran"; });
  int single = 0;
  pool.parallel_for(0, 1, [&](std::size_t) { ++single; });
  EXPECT_EQ(single, 1);
}

TEST(ThreadPool, SlotWritesAreDeterministicAcrossThreadCounts) {
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(512);
    pool.parallel_for(0, out.size(), [&](std::size_t i) {
      double acc = 0.0;
      for (std::size_t k = 0; k < 50; ++k) {
        acc += static_cast<double>(i * k) * 1e-3;
      }
      out[i] = acc;
    });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPool, PropagatesExceptionsToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("probe 37");
                        }),
      std::runtime_error);
  // The pool survives a throwing loop and keeps working.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ReportsLowestChunkException) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(0, 1000, [](std::size_t i) {
      if (i % 250 == 0) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // Parallelism at one level: every index of an inner parallel_for runs on
  // the thread that issued it, whether that is a worker or the outer loop's
  // caller (whose inner chunks must not be handed to idle workers).
  constexpr std::size_t kOuter = 2;
  constexpr std::size_t kInner = 64;
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::thread::id> outer_thread(kOuter);
    std::vector<std::thread::id> inner_thread(kOuter * kInner);
    pool.parallel_for(0, kOuter, [&](std::size_t i) {
      outer_thread[i] = std::this_thread::get_id();
      pool.parallel_for(0, kInner, [&](std::size_t j) {
        inner_thread[i * kInner + j] = std::this_thread::get_id();
        // Long enough for idle workers to wake and take chunks if the
        // inner loop were handed to the pool.
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      });
    });
    for (std::size_t i = 0; i < kOuter; ++i) {
      for (std::size_t j = 0; j < kInner; ++j) {
        ASSERT_EQ(inner_thread[i * kInner + j], outer_thread[i])
            << "round " << round << ", outer " << i << ", inner " << j;
      }
    }
  }
}

TEST(ThreadPool, RunChunkedTilesTheRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(777);
  pool.run_chunked(0, hits.size(), [&](std::size_t b, std::size_t e) {
    ASSERT_LT(b, e);
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, GlobalPoolResizesAndRuns) {
  reset_global_pool(2);
  EXPECT_EQ(global_pool().thread_count(), 2u);
  std::vector<int> out(64, 0);
  parallel_for(0, out.size(), [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 64);
  reset_global_pool(1);
  EXPECT_EQ(global_pool().thread_count(), 1u);
  parallel_for(0, out.size(), [&](std::size_t i) { out[i] = 2; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 128);
}

TEST(ThreadPool, InParallelRegionFlagIsScopedToTheLoop) {
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  ThreadPool pool(4);
  // Every index is inside the region, the ones the caller drains included.
  std::vector<int> inside(64, 0);
  pool.parallel_for(0, inside.size(), [&](std::size_t i) {
    inside[i] = ThreadPool::in_parallel_region() ? 1 : 0;
  });
  for (std::size_t i = 0; i < inside.size(); ++i) EXPECT_EQ(inside[i], 1) << i;
  EXPECT_FALSE(ThreadPool::in_parallel_region());

  // A throwing loop restores the caller's flag too.
  EXPECT_THROW(pool.parallel_for(0, 64,
                                 [](std::size_t i) {
                                   if (i % 8 == 0) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  EXPECT_FALSE(ThreadPool::in_parallel_region());

  // The serial paths open no region: their body is still the outermost loop.
  bool single_index = true;
  pool.parallel_for(0, 1, [&](std::size_t) {
    single_index = ThreadPool::in_parallel_region();
  });
  EXPECT_FALSE(single_index);
  ThreadPool serial(1);
  bool serial_pool = true;
  serial.parallel_for(0, 8, [&](std::size_t) {
    serial_pool = serial_pool && ThreadPool::in_parallel_region();
  });
  EXPECT_FALSE(serial_pool);
}

TEST(ThreadPool, ManySmallLoopsDrainCleanly) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 8, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 8);
  }
}

}  // namespace
}  // namespace surfos::util
