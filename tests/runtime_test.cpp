#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace mbrc::runtime {
namespace {

TEST(ThreadPool, DefaultJobsIsPositive) { EXPECT_GE(default_jobs(), 1); }

TEST(ThreadPool, ShutdownRunsAllSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i)
      pool.submit([&ran] { ran.fetch_add(1); });
    // Destructor joins the workers and drains any leftovers itself.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, ZeroWorkerPoolDrainsViaRunOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) pool.submit([&ran] { ran.fetch_add(1); });
  while (pool.run_one()) {
  }
  EXPECT_EQ(ran.load(), 10);
  EXPECT_FALSE(pool.run_one());
}

TEST(ThreadPool, AsyncReturnsValueAndRunsInlineWithoutWorkers) {
  ThreadPool pool(0);
  auto future = pool.async([] { return 41 + 1; });
  // No workers: the task must already have run inline.
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(future.get(), 42);

  ThreadPool threaded(2);
  auto f2 = threaded.async([] { return std::string("done"); });
  EXPECT_EQ(help_get(threaded, std::move(f2)), "done");
}

TEST(ThreadPool, AsyncPropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.async([]() -> int {
    throw std::runtime_error("async boom");
  });
  EXPECT_THROW(help_get(pool, std::move(future)), std::runtime_error);
}

TEST(FutureDrain, DrainsWatchedFuturesOnScopeExit) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<bool> task_done{false};
  {
    std::future<int> future;  // declared first: it must outlive the drain
    FutureDrain drain(pool);
    future = pool.async([&] {
      while (!release.load()) std::this_thread::yield();
      task_done.store(true);
      return 7;
    });
    drain.watch(future);
    release.store(true);
    // Scope exits without consuming the future: the guard must block until
    // the task ran, or `release`/`task_done` would dangle under it.
  }
  EXPECT_TRUE(task_done.load());
}

TEST(FutureDrain, KeepsFrameAliveThroughExceptionalUnwind) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  auto run = [&] {
    std::atomic<bool> release{false};
    std::future<int> future;  // declared first: it must outlive the drain
    FutureDrain drain(pool);
    future = pool.async([&] {
      while (!release.load()) std::this_thread::yield();
      sum.fetch_add(41);
      return 0;
    });
    drain.watch(future);
    release.store(true);
    throw std::runtime_error("unwind before help_get");
  };
  EXPECT_THROW(run(), std::runtime_error);
  // The throw unwound past the normal wait, but the guard drained the task
  // before `release` and `sum`'s capture frame died.
  EXPECT_EQ(sum.load(), 41);
}

TEST(FutureDrain, SkipsFuturesAlreadyConsumed) {
  ThreadPool pool(2);
  std::future<int> future;  // declared first: it must outlive the drain
  FutureDrain drain(pool);
  future = pool.async([] { return 5; });
  drain.watch(future);
  EXPECT_EQ(help_get(pool, std::move(future)), 5);
  // Destructor sees an invalid future and must not wait on it.
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(&pool, 4, kCount, 16,
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, SerialShortCircuits) {
  // jobs <= 1 and null pool both run the plain loop, in order.
  std::vector<std::size_t> order;
  parallel_for(nullptr, 8, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  ThreadPool pool(2);
  order.clear();
  parallel_for(&pool, 1, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      parallel_for(&pool, 4, 1000, 1,
                   [&](std::size_t i) {
                     ran.fetch_add(1);
                     if (i == 17) throw std::runtime_error("for boom");
                   }),
      std::runtime_error);
  // Cancellation is cooperative: some chunks after the throw may have run,
  // but the region must have stopped well short of the full range.
  EXPECT_GE(ran.load(), 1);
}

TEST(ParallelFor, NestedRegionsComplete) {
  // Outer region over 8 items, each spawning an inner region on the same
  // pool. Blocked outer tasks help drain the pool, so this must not
  // deadlock even with few workers.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> counts(8 * 64);
  parallel_for(&pool, 3, 8, [&](std::size_t outer) {
    parallel_for(&pool, 3, 64, 4, [&](std::size_t inner) {
      counts[outer * 64 + inner].fetch_add(1);
    });
  });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelTransform, MatchesSerialMapInOrder) {
  ThreadPool pool(4);
  std::vector<int> items(5000);
  std::iota(items.begin(), items.end(), 0);

  const auto square = [](const int& v) { return v * v; };
  const std::vector<int> serial =
      parallel_transform(nullptr, 1, items, square);
  const std::vector<int> parallel =
      parallel_transform(&pool, 4, items, square, 8);

  ASSERT_EQ(serial.size(), items.size());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace mbrc::runtime
