#include "src/serve/admission.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace webcc {
namespace {

TEST(AdmissionTest, AdmitsUpToCapacityThenSheds) {
  AdmissionController admission(3);
  EXPECT_TRUE(admission.TryAdmit());
  EXPECT_TRUE(admission.TryAdmit());
  EXPECT_TRUE(admission.TryAdmit());
  EXPECT_FALSE(admission.TryAdmit());
  EXPECT_FALSE(admission.TryAdmit());

  const auto counters = admission.counters();
  EXPECT_EQ(counters.offered, 5u);
  EXPECT_EQ(counters.admitted, 3u);
  EXPECT_EQ(counters.shed, 2u);
  EXPECT_EQ(counters.depth, 3u);
  EXPECT_EQ(counters.depth_peak, 3u);
  EXPECT_EQ(counters.capacity, 3u);
}

TEST(AdmissionTest, ReleaseOpensASlot) {
  AdmissionController admission(1);
  EXPECT_TRUE(admission.TryAdmit());
  EXPECT_FALSE(admission.TryAdmit());
  admission.Release();
  EXPECT_TRUE(admission.TryAdmit());

  const auto counters = admission.counters();
  EXPECT_EQ(counters.admitted, 2u);
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.depth, 1u);
  EXPECT_EQ(counters.depth_peak, 1u);
}

TEST(AdmissionTest, ZeroCapacityClampsToOne) {
  AdmissionController admission(0);
  EXPECT_TRUE(admission.TryAdmit());
  EXPECT_FALSE(admission.TryAdmit());
  EXPECT_EQ(admission.counters().capacity, 1u);
}

TEST(AdmissionTest, DepthPeakNeverExceedsCapacityUnderContention) {
  constexpr size_t kCapacity = 8;
  constexpr int kThreads = 6;
  constexpr int kRoundsPerThread = 2000;
  AdmissionController admission(kCapacity);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&admission] {
      for (int i = 0; i < kRoundsPerThread; ++i) {
        if (admission.TryAdmit()) {
          admission.Release();
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const auto counters = admission.counters();
  EXPECT_EQ(counters.offered, static_cast<uint64_t>(kThreads) * kRoundsPerThread);
  EXPECT_EQ(counters.offered, counters.admitted + counters.shed);
  EXPECT_EQ(counters.depth, 0u);
  EXPECT_LE(counters.depth_peak, kCapacity);
}

TEST(AdmissionTest, ConcurrentHoldersNeverOverAdmit) {
  // Threads hold their reservations across a yield, so admissions and
  // releases genuinely interleave; at no instant may more than capacity
  // slots be held, and once everyone has released the books balance.
  constexpr size_t kCapacity = 3;
  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 1000;
  AdmissionController admission(kCapacity);
  std::atomic<size_t> held{0};
  std::atomic<size_t> held_peak{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRoundsPerThread; ++i) {
        if (!admission.TryAdmit()) {
          continue;
        }
        const size_t now_held = held.fetch_add(1) + 1;
        size_t peak = held_peak.load();
        while (peak < now_held && !held_peak.compare_exchange_weak(peak, now_held)) {
        }
        std::this_thread::yield();
        held.fetch_sub(1);
        admission.Release();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const auto counters = admission.counters();
  EXPECT_EQ(counters.offered, static_cast<uint64_t>(kThreads) * kRoundsPerThread);
  EXPECT_EQ(counters.offered, counters.admitted + counters.shed);
  EXPECT_GT(counters.admitted, 0u);
  EXPECT_EQ(counters.depth, 0u);
  EXPECT_LE(counters.depth_peak, kCapacity);
  EXPECT_LE(held_peak.load(), kCapacity);
}

TEST(AdmissionTest, ReleaseWithoutAdmitDies) {
  AdmissionController admission(2);
  EXPECT_DEATH(admission.Release(), "Release without a matching TryAdmit");
  EXPECT_TRUE(admission.TryAdmit());
  admission.Release();
  EXPECT_DEATH(admission.Release(), "Release without a matching TryAdmit");
}

}  // namespace
}  // namespace webcc
