// Tests for the shared threading primitives (common/thread_pool.hpp):
// for_each_index semantics (inline serial path, exception rethrow,
// full-crew completion, cancellation) and ThreadPool lifecycle (FIFO
// execution, submit-from-job, drain-on-stop, post-stop rejection,
// exception swallowing).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "icvbe/common/error.hpp"
#include "icvbe/common/thread_pool.hpp"

namespace icvbe::common {
namespace {

TEST(ResolveThreadCount, PassthroughAndHardwareFallback) {
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
  EXPECT_GE(resolve_thread_count(0), 1u);
}

/// make() for tests that need no per-worker state.
constexpr auto kNoState = [](unsigned) { return 0; };

TEST(ForEachIndex, SerialRunsInlineOnCaller) {
  // One worker must run on the calling thread: the serial analysis paths
  // rely on inheriting the session's state without a handoff.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  for_each_index(5, 1, kNoState, [&](int, std::size_t) {
    seen.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 5u);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ForEachIndex, SerialVisitsIndicesInOrderWithOneState) {
  std::vector<std::size_t> order;
  int builds = 0;
  for_each_index(
      6, 1,
      [&](unsigned workers) {
        EXPECT_EQ(workers, 1u);
        ++builds;
        return std::vector<std::size_t>{};
      },
      [&](std::vector<std::size_t>& mine, std::size_t i) {
        mine.push_back(i);
        order = mine;
      });
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ForEachIndex, EveryIndexRunsExactlyOnceOnAFullCrew) {
  // A full crew: 8 workers over 1000 indices, each worker building its
  // state once on its first index.
  constexpr std::size_t kN = 1000;
  std::vector<int> slots(kN, 0);
  std::atomic<int> builds{0};
  std::atomic<unsigned> crew{0};
  for_each_index(
      kN, 8,
      [&](unsigned workers) {
        crew.store(workers);
        return builds.fetch_add(1) + 1;
      },
      [&](int, std::size_t i) { ++slots[i]; });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(slots[i], 1) << i;
  EXPECT_EQ(crew.load(), 8u);
  EXPECT_GE(builds.load(), 1);
  EXPECT_LE(builds.load(), 8);
}

TEST(ForEachIndex, CrewIsCappedAtTheItemCount) {
  std::atomic<unsigned> crew{0};
  std::atomic<int> builds{0};
  for_each_index(
      3, 16,
      [&](unsigned workers) {
        crew.store(workers);
        return builds.fetch_add(1);
      },
      [](int, std::size_t) {});
  EXPECT_EQ(crew.load(), 3u);
  EXPECT_LE(builds.load(), 3);
}

TEST(ForEachIndex, RethrowsFirstExceptionAfterAllWorkersFinish) {
  // Index 0 throws; the other workers must still run their remaining
  // indices to completion before the exception surfaces in the caller.
  std::atomic<int> finished{0};
  std::string caught;
  try {
    for_each_index(8, 4, kNoState, [&](int, std::size_t i) {
      if (i == 0) throw std::runtime_error("worker boom");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      finished.fetch_add(1);
    });
  } catch (const std::runtime_error& e) {
    caught = e.what();
  }
  EXPECT_EQ(caught, "worker boom");
  EXPECT_EQ(finished.load(), 7);
}

TEST(ForEachIndex, SerialExceptionPropagatesDirectly) {
  int ran = 0;
  EXPECT_THROW(for_each_index(4, 1, kNoState,
                              [&](int, std::size_t) {
                                ++ran;
                                throw Error("serial boom");
                              }),
               Error);
  EXPECT_EQ(ran, 1);
}

TEST(ForEachIndex, CancelStopsClaiming) {
  // Once the flag is set no worker claims another index; the serial path
  // stops right after the index that set it.
  std::atomic<bool> cancelled{false};
  std::vector<std::size_t> ran;
  for_each_index(
      10, 1, kNoState,
      [&](int, std::size_t i) {
        ran.push_back(i);
        if (i == 2) cancelled.store(true);
      },
      &cancelled);
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}));

  int none = 0;
  for_each_index(10, 1, kNoState, [&](int, std::size_t) { ++none; },
                 &cancelled);
  EXPECT_EQ(none, 0) << "a set flag claims nothing";

  cancelled.store(false);
  std::atomic<int> parallel{0};
  for_each_index(
      100000, 4, kNoState,
      [&](int, std::size_t) {
        if (parallel.fetch_add(1) == 5) cancelled.store(true);
      },
      &cancelled);
  EXPECT_GE(parallel.load(), 6);
  EXPECT_LT(parallel.load(), 100000);
}

TEST(ThreadPool, DestructorDrainsAllQueuedJobs) {
  std::atomic<int> sum{0};
  {
    ThreadPool pool(3);
    for (int i = 1; i <= 100; ++i) {
      pool.submit([&sum, i]() { sum.fetch_add(i); });
    }
  }  // destructor drains
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, JobsMaySubmitFollowUpJobs) {
  // A running job may enqueue follow-up work (the server's run bodies do
  // this when a client pipelines requests).
  std::atomic<int> hits{0};
  {
    ThreadPool pool(2);
    pool.submit([&]() {
      hits.fetch_add(1);
      pool.submit([&]() { hits.fetch_add(1); });
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(hits.load(), 2);
}

TEST(ThreadPool, SubmitAfterStopThrows) {
  ThreadPool pool(1);
  pool.stop_and_join();
  EXPECT_THROW(pool.submit([]() {}), Error);
  pool.stop_and_join();  // idempotent
}

TEST(ThreadPool, StopRunsQueueDry) {
  // Queued-but-unstarted jobs still execute: queued runs owe their
  // clients a terminal protocol frame.
  std::atomic<int> ran{0};
  ThreadPool pool(1);
  pool.submit([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ran.fetch_add(1);
  });
  for (int i = 0; i < 5; ++i) {
    pool.submit([&]() { ran.fetch_add(1); });
  }
  pool.stop_and_join();
  EXPECT_EQ(ran.load(), 6);
}

TEST(ThreadPool, ThrowingJobDoesNotKillItsWorker) {
  std::atomic<int> after{0};
  {
    ThreadPool pool(1);
    pool.submit([]() { throw std::runtime_error("job boom"); });
    pool.submit([&]() { after.fetch_add(1); });
  }
  EXPECT_EQ(after.load(), 1);
}

TEST(ThreadPool, ConcurrentSubmittersAllLand) {
  // Many threads hammering submit() concurrently (the server shape: one
  // reader thread per connection, all feeding one pool).
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&pool, &done]() {
        for (int i = 0; i < 250; ++i) {
          pool.submit([&done]() { done.fetch_add(1); });
        }
      });
    }
    for (auto& t : submitters) t.join();
  }
  EXPECT_EQ(done.load(), 1000);
}

}  // namespace
}  // namespace icvbe::common
