// Parallel flow runtime: a work-stealing thread pool with deterministic
// fan-out helpers.
//
// Design contract (see DESIGN.md, "Parallel runtime"):
//   - Work items write their results into pre-sized, index-addressed slots;
//     no task ever observes another task's output.
//   - Reductions over those slots happen on the calling thread, in input
//     order. Together these make every parallel stage bit-identical to its
//     serial execution at any thread count.
//   - `jobs <= 1` (or a null pool) short-circuits to a plain serial loop:
//     no tasks, no synchronization, the exact serial code path.
//
// Scheduling: each worker owns a deque; it pops its own back (LIFO, cache
// warm) and steals other fronts (FIFO, oldest first). Threads that block on
// a parallel region help drain the pool instead of sleeping, so nested
// parallel_for calls cannot deadlock even when every worker is waiting.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"

namespace mbrc::runtime {

/// Default parallelism for flow-level knobs: the hardware thread count
/// (at least 1).
int default_jobs();

class ThreadPool {
public:
  /// Spawns `workers` threads. Zero workers is valid: submitted tasks then
  /// run only when a caller drains them (run_one / parallel-region help
  /// loops), which is exactly what happens on a single-core host.
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(threads_.size()); }

  /// Telemetry gauges for the service stats verb. Relaxed reads of
  /// instantaneous values: measurement-only, never part of any result.
  /// Tasks queued but not yet picked up by a thread.
  int queue_depth() const {
    return std::max(0, pending_.load(std::memory_order_relaxed));
  }
  /// High-water mark of queue_depth() since construction.
  int queue_depth_peak() const {
    return peak_depth_.load(std::memory_order_relaxed);
  }
  /// Threads currently inside a task (workers plus helpers in run_one).
  int active_workers() const {
    return active_.load(std::memory_order_relaxed);
  }

  /// Enqueues a task. Tasks submitted from a worker thread go to that
  /// worker's own deque (LIFO); external submissions round-robin across
  /// workers. Must not be called concurrently with destruction.
  void submit(std::function<void()> task);

  /// Pops (or steals) one pending task and runs it on the calling thread.
  /// Returns false when no task was available. This is the "help" primitive
  /// that keeps nested parallel regions deadlock-free.
  bool run_one();

  /// Runs `fn` on the pool and returns a future for its result. On a pool
  /// with no workers the call runs inline (the future is ready on return),
  /// so waiting on it never deadlocks on single-core hosts.
  template <class Fn>
  auto async(Fn fn) -> std::future<std::invoke_result_t<Fn&>> {
    using R = std::invoke_result_t<Fn&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    if (worker_count() == 0) {
      (*task)();
      return result;
    }
    submit([task] { (*task)(); });
    return result;
  }

  /// The process-wide pool shared by the flow stages: default_jobs() - 1
  /// workers (the calling thread is the remaining lane).
  static ThreadPool& global();

private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(int self);
  bool try_pop(int preferred, std::function<void()>& out);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<int> pending_{0};
  std::atomic<int> peak_depth_{0};
  std::atomic<int> active_{0};
  std::atomic<bool> stop_{false};
  std::mutex sleep_mutex_;
  std::condition_variable wake_;
};

/// Waits for `future` while helping the pool drain pending tasks (so the
/// waiter contributes a lane instead of idling), then returns its value.
template <class T>
T help_get(ThreadPool& pool, std::future<T> future) {
  while (future.wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
    if (!pool.run_one())
      future.wait_for(std::chrono::microseconds(200));
  }
  return future.get();
}

/// RAII companion to ThreadPool::async for exception safety. Tasks whose
/// lambdas capture the submitting frame by reference dangle when an
/// exception unwinds past the help_get that was supposed to collect them;
/// a FutureDrain declared *before* the submissions blocks scope exit --
/// normal or exceptional -- until every watched future settled, helping
/// the pool drain instead of idling (same loop as help_get). It holds the
/// watched futures by reference, so declare them before the drain: they
/// must outlive it. mbrc-analyze rule A2 recognizes this type as a wait
/// that dominates every exit.
class FutureDrain {
 public:
  explicit FutureDrain(ThreadPool& pool) : pool_(&pool) {}
  FutureDrain(const FutureDrain&) = delete;
  FutureDrain& operator=(const FutureDrain&) = delete;

  /// Registers `future` to be drained on scope exit. The future stays
  /// usable: consuming it via get()/help_get marks it invalid and the
  /// destructor skips it.
  template <class T>
  void watch(std::future<T>& future) {
    waiters_.push_back([&future] {
      return future.valid() &&
             future.wait_for(std::chrono::seconds(0)) !=
                 std::future_status::ready;
    });
  }

  ~FutureDrain() {
    for (const auto& pending : waiters_)
      while (pending())
        if (!pool_->run_one())
          std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

 private:
  ThreadPool* pool_;
  std::vector<std::function<bool()>> waiters_;
};

namespace detail {

// Shared between the caller and its helper tasks via shared_ptr: the caller
// may observe live_helpers == 0 and return while the last helper is still
// inside its notify block, so the state must outlive the parallel_for call
// frame and die with the last referencing task.
struct ForState {
  std::atomic<std::size_t> next{0};
  std::size_t count = 0;
  std::size_t grain = 1;
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::atomic<int> live_helpers{0};
  std::mutex done_mutex;
  std::condition_variable done;
};

/// Labels the calling pool-worker thread in the active trace ("worker-N").
/// One relaxed atomic load when no tracer is installed.
void label_worker_for_trace();

}  // namespace detail

/// Runs `fn(i)` for i in [0, count) across up to `jobs` threads (the caller
/// plus at most jobs - 1 pool workers), `grain` consecutive indices per
/// task. Blocks until every index ran; while blocked the caller executes
/// pending pool tasks. The first exception thrown by `fn` cancels the
/// remaining chunks and is rethrown here. With `jobs <= 1`, a null pool, or
/// count <= grain, this is a plain serial loop.
template <class Fn>
void parallel_for(ThreadPool* pool, int jobs, std::size_t count,
                  std::size_t grain, Fn&& fn) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  if (pool == nullptr || jobs <= 1 || count <= grain) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  obs::Span region_span("parallel_for");

  auto state = std::make_shared<detail::ForState>();
  state->count = count;
  state->grain = grain;

  // `fn` is captured by reference: the caller's frame outlives every use
  // because it only returns after each helper's final run_chunks ended.
  const auto run_chunks = [&fn](detail::ForState& st) {
    while (!st.failed.load(std::memory_order_relaxed)) {
      const std::size_t begin = st.next.fetch_add(st.grain);
      if (begin >= st.count) return;
      const std::size_t end = std::min(st.count, begin + st.grain);
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(st.error_mutex);
        if (!st.error) st.error = std::current_exception();
        st.failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  const std::size_t chunks = (count + grain - 1) / grain;
  const int helpers = static_cast<int>(std::min<std::size_t>(
      {static_cast<std::size_t>(jobs - 1),
       static_cast<std::size_t>(pool->worker_count()), chunks - 1}));
  state->live_helpers.store(helpers);
  for (int h = 0; h < helpers; ++h) {
    // mbrc-analyze: allow(A2, run_chunks traps all exceptions in st.error so the drain loop below runs on every path)
    pool->submit([state, run_chunks] {
      {
        detail::label_worker_for_trace();
        obs::Span worker_span("parallel_for.worker");
        run_chunks(*state);
      }
      if (state->live_helpers.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(state->done_mutex);
        state->done.notify_all();
      }
    });
  }

  run_chunks(*state);
  while (state->live_helpers.load() > 0) {
    if (!pool->run_one()) {
      std::unique_lock<std::mutex> lock(state->done_mutex);
      state->done.wait_for(lock, std::chrono::milliseconds(1),
                          [&] { return state->live_helpers.load() == 0; });
    }
  }
  if (state->error) std::rethrow_exception(state->error);
}

/// parallel_for with the default per-task grain of one index.
template <class Fn>
void parallel_for(ThreadPool* pool, int jobs, std::size_t count, Fn&& fn) {
  parallel_for(pool, jobs, count, 1, std::forward<Fn>(fn));
}

/// Maps `fn` over `items`, returning results in input order regardless of
/// thread count (each task writes its own pre-sized slot). The result type
/// must be default-constructible.
template <class T, class Fn>
auto parallel_transform(ThreadPool* pool, int jobs, const std::vector<T>& items,
                        Fn&& fn, std::size_t grain = 1)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const T&>>> {
  std::vector<std::decay_t<std::invoke_result_t<Fn&, const T&>>> out(
      items.size());
  parallel_for(pool, jobs, items.size(), grain,
               [&](std::size_t i) { out[i] = fn(items[i]); });
  return out;
}

}  // namespace mbrc::runtime
