// The persistent work-stealing executor: full coverage of every index,
// dynamic rebalance under skewed task sizes, exception propagation, and
// reuse of one pool across many submissions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace {

using proxion::util::ThreadPool;

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroThreadsResolvesToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, SingleWorkerRunsInlineOnCaller) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallel_for(8, [&](std::size_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, StealsWorkUnderSkewedTaskSizes) {
  // One worker's first chunk sleeps while the rest of its queue sits idle —
  // with static sharding those chunks would wait the full sleep; here a
  // thief must take them. Owners pop their own deque front-first, so the
  // expensive item is picked up before the queued remainder.
  ThreadPool pool(4);
  const std::uint64_t steals_before = pool.steal_count();
  std::vector<std::atomic<int>> counts(16);
  pool.parallel_for(16, [&](std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
  EXPECT_GT(pool.steal_count(), steals_before);
}

TEST(ThreadPoolTest, FourItemsRunAtOnceOnFourWorkers) {
  // A rendezvous, not a stopwatch: each of 4 items waits until all 4 are
  // running at the same time. A pool that serializes never gets there; the
  // shared deadline makes it fail after a few seconds instead of hanging.
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  int running = 0;
  int met = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  pool.parallel_for(4, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++running;
    cv.notify_all();
    if (cv.wait_until(lock, deadline, [&] { return running == 4; })) ++met;
  });
  EXPECT_EQ(met, 4);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);

  // The pool must remain fully usable after a failed job.
  std::atomic<int> ran{0};
  pool.parallel_for(128, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 128);
}

TEST(ThreadPoolTest, ExceptionSkipsRemainingIterations) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(100'000,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1,
                                                 std::memory_order_relaxed);
                                   if (i == 0) {
                                     throw std::runtime_error("first");
                                   }
                                 }),
               std::runtime_error);
  // Chunks observing the abort flag bail out; far fewer than all
  // iterations run.
  EXPECT_LT(ran.load(), 100'000);
}

TEST(ThreadPoolTest, ReusableAcrossManyParallelForRounds) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(100, [&](std::size_t i) {
      total.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50ull * (99ull * 100ull / 2ull));
  EXPECT_GE(pool.tasks_executed(), 50u);  // chunks actually ran on workers
}

TEST(ThreadPoolTest, SubmitRunsFireAndForgetTasks) {
  ThreadPool pool(3);
  constexpr int kTasks = 64;
  std::atomic<int> done{0};
  std::promise<void> all_done;
  for (int t = 0; t < kTasks; ++t) {
    pool.submit([&] {
      if (done.fetch_add(1, std::memory_order_relaxed) + 1 == kTasks) {
        all_done.set_value();
      }
    });
  }
  ASSERT_EQ(all_done.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int t = 0; t < 32; ++t) {
      pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~ThreadPool joins after the queues drain
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  // parallel_for from inside a pool task must not park on the completion
  // wait: with every worker nesting at once no thread would remain to run
  // the queued chunks. The re-entrancy guard runs the nested range inline
  // on the nesting worker instead.
  ThreadPool pool(2);
  std::atomic<std::uint64_t> inner{0};
  pool.parallel_for(8, [&](std::size_t) {
    const auto worker = std::this_thread::get_id();
    pool.parallel_for(16, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), worker);  // inline, not re-queued
      inner.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner.load(), 8u * 16u);
  EXPECT_FALSE(pool.on_worker_thread());  // the guard is per worker thread
}

TEST(ThreadPoolTest, QueueDepthDrainsToZeroAfterJoin) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.queue_depth(), 0u);
  pool.parallel_for(1'000, [](std::size_t) {});
  // parallel_for blocked until every chunk ran; no backlog can remain.
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolTest, RegistryMirrorsTrackInstanceCounters) {
  namespace obs = proxion::obs;
  obs::Counter& executed =
      obs::Registry::global().counter("threadpool.tasks_executed");
  obs::Counter& steals = obs::Registry::global().counter("threadpool.steals");
  obs::Gauge& depth = obs::Registry::global().gauge("threadpool.queue_depth");
  const std::uint64_t executed_before = executed.value();
  const std::uint64_t steals_before = steals.value();

  ThreadPool pool(4);
  // Same skew as StealsWorkUnderSkewedTaskSizes: force at least one steal so
  // both the instance counter and its registry mirror move.
  pool.parallel_for(16, [](std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });

  // The global registry aggregates across all pools in the process; with no
  // other pool alive the deltas equal this pool's instance counters.
  EXPECT_EQ(executed.value() - executed_before, pool.tasks_executed());
  EXPECT_EQ(steals.value() - steals_before, pool.steal_count());
  EXPECT_GT(pool.steal_count(), 0u);
  // Every enqueue was matched by a dequeue once the join returned.
  EXPECT_EQ(depth.value(), 0);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallersDoNotInterfere) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> a{0}, b{0};
  std::thread other([&] {
    pool.parallel_for(5'000, [&](std::size_t) {
      a.fetch_add(1, std::memory_order_relaxed);
    });
  });
  pool.parallel_for(5'000, [&](std::size_t) {
    b.fetch_add(1, std::memory_order_relaxed);
  });
  other.join();
  EXPECT_EQ(a.load(), 5'000u);
  EXPECT_EQ(b.load(), 5'000u);
}

}  // namespace
