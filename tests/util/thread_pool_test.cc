#include "src/util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace webcc {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNothingSubmittedReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 10; ++batch) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // no Wait(): destructor must finish the queue before joining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, WaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> counter{0};
  pool.Submit([&counter] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&hits](size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForMoreWorkersThanItems) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&hits](size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on this thread, so the plain int is race-free.
  pool.ParallelFor(1, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

// ThreadSanitizer-targeted stress: submissions racing from several producer
// threads while the pool's workers drain, repeated across generations. Run
// under -DWEBCC_SANITIZE=thread this hammers the queue/counter paths; any
// missing synchronization in Submit/Wait/WorkerLoop shows up as a TSan
// report rather than a flaky count.
TEST(ThreadPoolTest, ConcurrentProducersHammer) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 500;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&pool, &sum, p] {
        for (int i = 0; i < kTasksPerProducer; ++i) {
          pool.Submit([&sum, p, i] {
            sum.fetch_add(static_cast<int64_t>(p) * kTasksPerProducer + i,
                          std::memory_order_relaxed);
          });
        }
      });
    }
    for (std::thread& producer : producers) {
      producer.join();
    }
    pool.Wait();
  }
  int64_t expected_round = 0;
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kTasksPerProducer; ++i) {
      expected_round += static_cast<int64_t>(p) * kTasksPerProducer + i;
    }
  }
  EXPECT_EQ(sum.load(), 3 * expected_round);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedButUnstartedTasks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  // The single worker chews slowly through the first task while the rest
  // sit queued; Shutdown must run them all before joining.
  pool.Submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(30)); });
  for (int i = 0; i < 40; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 40);
}

TEST(ThreadPoolTest, ShutdownIsIdempotentIncludingTheDestructor) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Shutdown();
    pool.Shutdown();  // second explicit call: no-op
  }  // destructor: third call, still a no-op
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ExceptionDuringShutdownDrainStillReachesWait) {
  ThreadPool pool(1);
  pool.Submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
  pool.Submit([] { throw std::runtime_error("drained boom"); });
  pool.Shutdown();
  EXPECT_THROW(pool.Wait(), std::runtime_error);
}

TEST(ElasticThreadPoolTest, RunsTasksWithMinimalOptions) {
  ElasticThreadPool::Options options;
  options.min_threads = 1;
  options.max_threads = 1;
  ElasticThreadPool pool(options);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
  EXPECT_EQ(pool.threads(), 1u);
  EXPECT_EQ(pool.peak_threads(), 1u);
}

TEST(ElasticThreadPoolTest, OptionsAreClampedToSanity) {
  ElasticThreadPool::Options options;
  options.min_threads = 5;
  options.max_threads = 0;  // max below min (and below 1): both clamp
  options.idle_timeout_ms = -7;
  ElasticThreadPool pool(options);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  EXPECT_GE(pool.threads(), 1u);
}

TEST(ElasticThreadPoolTest, GrowsOnDemandUpToMaxWhenAllWorkersBlock) {
  constexpr size_t kMax = 4;
  ElasticThreadPool::Options options;
  options.min_threads = 1;
  options.max_threads = kMax;
  options.idle_timeout_ms = 10'000;  // no shrink during the test
  ElasticThreadPool pool(options);

  std::mutex mu;
  std::condition_variable all_running;
  std::condition_variable released;
  bool release = false;
  size_t running = 0;
  for (size_t i = 0; i < kMax; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      if (++running == kMax) {
        all_running.notify_one();
      }
      released.wait(lock, [&] { return release; });
    });
  }
  // All kMax tasks must end up running simultaneously: the pool grew. A
  // pool that never grows hangs here until the ctest timeout fails it.
  {
    std::unique_lock<std::mutex> lock(mu);
    all_running.wait(lock, [&] { return running == kMax; });
    EXPECT_EQ(running, kMax);
  }
  EXPECT_EQ(pool.threads(), kMax);
  EXPECT_EQ(pool.peak_threads(), kMax);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  released.notify_all();
  pool.Wait();
}

TEST(ElasticThreadPoolTest, SurplusWorkersExitAfterIdleTimeout) {
  ElasticThreadPool::Options options;
  options.min_threads = 1;
  options.max_threads = 4;
  options.idle_timeout_ms = 20;
  ElasticThreadPool pool(options);

  std::atomic<int> counter{0};
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&counter] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      counter.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 4);
  const size_t peak = pool.peak_threads();
  EXPECT_GE(peak, 2u);
  // Surplus workers drain back toward min once idle; give the timeout a
  // generous grace period before asserting.
  for (int spin = 0; spin < 5000 && pool.threads() > 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.threads(), 1u);
  EXPECT_EQ(pool.peak_threads(), peak);  // the high-water mark survives
}

TEST(ElasticThreadPoolTest, WaitRethrowsFirstTaskException) {
  ElasticThreadPool::Options options;
  options.min_threads = 2;
  options.max_threads = 4;
  ElasticThreadPool pool(options);
  pool.Submit([] { throw std::runtime_error("elastic boom"); });
  for (int i = 0; i < 10; ++i) {
    pool.Submit([] {});
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The pool keeps working after a rethrow.
  std::atomic<int> counter{0};
  pool.Submit([&counter] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ElasticThreadPoolTest, ShutdownDrainsAndIsIdempotent) {
  std::atomic<int> counter{0};
  {
    ElasticThreadPool::Options options;
    options.min_threads = 1;
    options.max_threads = 2;
    ElasticThreadPool pool(options);
    pool.Submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
    for (int i = 0; i < 30; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Shutdown();
    EXPECT_EQ(counter.load(), 30);
    EXPECT_EQ(pool.threads(), 0u);
    pool.Shutdown();  // no-op
  }  // destructor: also a no-op
  EXPECT_EQ(counter.load(), 30);
}

TEST(ElasticThreadPoolTest, ConcurrentProducersHammer) {
  constexpr int kProducers = 6;
  constexpr int kTasksPerProducer = 400;
  ElasticThreadPool::Options options;
  options.min_threads = 1;
  options.max_threads = 8;
  options.idle_timeout_ms = 5;  // aggressive shrink while the hammer runs
  ElasticThreadPool pool(options);
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &sum, p] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        const int64_t value = static_cast<int64_t>(p) * kTasksPerProducer + i;
        pool.Submit([&sum, value] { sum.fetch_add(value, std::memory_order_relaxed); });
      }
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  pool.Wait();
  int64_t expected = 0;
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kTasksPerProducer; ++i) {
      expected += static_cast<int64_t>(p) * kTasksPerProducer + i;
    }
  }
  EXPECT_EQ(sum.load(), expected);
  EXPECT_LE(pool.peak_threads(), 8u);
  EXPECT_GE(pool.peak_threads(), 1u);
}

TEST(ResolveJobsTest, ExplicitRequestWins) {
  EXPECT_EQ(ResolveJobs(3), 3u);
  EXPECT_EQ(ResolveJobs(1), 1u);
}

TEST(ResolveJobsTest, AutoReadsEnvironment) {
  ASSERT_EQ(setenv("WEBCC_JOBS", "5", 1), 0);
  EXPECT_EQ(ResolveJobs(0), 5u);
  ASSERT_EQ(setenv("WEBCC_JOBS", "not-a-number", 1), 0);
  EXPECT_EQ(ResolveJobs(0), HardwareJobs());
  ASSERT_EQ(unsetenv("WEBCC_JOBS"), 0);
  EXPECT_EQ(ResolveJobs(0), HardwareJobs());
}

TEST(ResolveJobsTest, HardwareJobsIsPositive) { EXPECT_GE(HardwareJobs(), 1u); }

}  // namespace
}  // namespace webcc
