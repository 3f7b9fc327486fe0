#include "icvbe/common/thread_pool.hpp"

#include <utility>

#include "icvbe/common/error.hpp"

namespace icvbe::common {

unsigned resolve_thread_count(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = resolve_thread_count(threads);
  workers_.reserve(n);
  for (unsigned t = 0; t < n; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::submit(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw Error("ThreadPool: submit after stop");
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::stop_and_join() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Serialise concurrent stop_and_join() callers (stop() racing the
  // destructor): join() on the same std::thread twice is UB.
  const std::lock_guard<std::mutex> join_lock(join_mutex_);
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: queued runs still owe their
      // clients a terminal frame.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      job();
    } catch (...) {
      // Jobs own their error reporting; a throwing job must not take the
      // worker down.
    }
  }
}

}  // namespace icvbe::common
