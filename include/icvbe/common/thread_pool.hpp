#pragma once
// Shared threading primitives.
//
// Two shapes of concurrency exist in the repository and both live here:
//
//  * for_each_index(): the one work loop of the parallel analysis paths
//    (plan.cpp 2-axis rows and AC frequency points, lab::LotCampaign die
//    groups). Workers claim indices from one shared counter and run
//    body(state, i) on their own per-worker state; every item writes only
//    its own preallocated result slots, so results are bit-identical for
//    any worker count -- scheduling decides who computes an item, never
//    what it yields. The call sites say only what one item is and what a
//    worker needs to compute it; claiming, cancellation, the thread
//    lifecycle and exception capture are the scheduler's.
//
//  * ThreadPool: a persistent pool with a job queue, built for the
//    long-lived SimServer -- analyses arrive over connections at any time
//    and execute asynchronously on whichever worker frees up first.
//    Determinism is not a pool property here: each submitted job is an
//    independent simulation run whose result is a pure function of its
//    inputs (the SimSession discipline), so which worker executes it is
//    irrelevant.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace icvbe::common {

/// Resolve a thread-count request: 0 = hardware_concurrency (min 1).
[[nodiscard]] unsigned resolve_thread_count(unsigned requested) noexcept;

/// Run body(state, i) for every i in [0, n) on min(threads, n) workers
/// (threads 0 = hardware_concurrency), the calling thread being one of
/// them: a single worker spawns nothing, which keeps serial analyses on
/// the caller's own session. Workers claim indices in increasing order
/// from one shared counter; each builds its state with make(workers) on
/// its first claimed index and keeps it for the rest. Once `*cancelled`
/// is set no worker claims another index. A throwing body stops its own
/// worker only; the first exception is rethrown once every worker has
/// joined. body must be safe to run concurrently on distinct states.
template <typename Make, typename Body>
void for_each_index(std::size_t n, unsigned threads, Make&& make,
                    Body&& body,
                    const std::atomic<bool>* cancelled = nullptr) {
  const auto workers = static_cast<unsigned>(
      std::min<std::size_t>(resolve_thread_count(threads), n));
  std::atomic<std::size_t> next{0};
  const auto claim = [&]() -> std::size_t {
    if (cancelled != nullptr && cancelled->load(std::memory_order_relaxed)) {
      return n;
    }
    return next.fetch_add(1, std::memory_order_relaxed);
  };
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto worker = [&]() {
    try {
      std::size_t i = claim();
      if (i >= n) return;
      auto state = make(workers);
      do {
        body(state, i);
      } while ((i = claim()) < n);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  std::vector<std::thread> crew;
  for (unsigned t = 1; t < workers; ++t) {
    // If creation fails, the crew so far finishes every index with the
    // same results; throwing would destroy joinable threads.
    try {
      crew.emplace_back(worker);
    } catch (...) {
      break;
    }
  }
  worker();
  for (auto& t : crew) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// Fixed-size worker pool over a FIFO job queue.
///
/// Thread-safety: submit() may be called from any thread, including from
/// inside a running job. Jobs must not block waiting for later-queued
/// jobs (the pool has no work stealing; that would deadlock a full pool).
/// Exceptions escaping a job are swallowed -- jobs own their error
/// reporting (the server wraps every run in a try block that turns
/// failures into protocol frames).
class ThreadPool {
 public:
  /// Spawn `threads` workers (0 = hardware_concurrency).
  explicit ThreadPool(unsigned threads);
  /// Drains: blocks until every queued and running job has finished,
  /// then joins the workers (same as stop_and_join()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job. Throws icvbe::Error if the pool is stopping.
  void submit(std::function<void()> job);

  /// Stop accepting jobs, run the queue dry, join the workers.
  /// Idempotent. Queued jobs still execute -- a server shutdown first
  /// flips the per-run cancel flags, so drained jobs finish fast.
  void stop_and_join();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::mutex join_mutex_;  ///< serialises stop_and_join() callers
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace icvbe::common
