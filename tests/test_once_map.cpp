// The striped once-map behind the pipeline's code-blob table and pair memo:
// each key computed exactly once, an in-flight compute blocking duplicate
// work, a failed compute staying retriable, and many threads over many keys.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/once_map.h"

namespace {

using proxion::core::StripedOnceMap;

TEST(StripedOnceMapTest, ComputesEachKeyExactlyOnce) {
  StripedOnceMap<std::string, int> map(4);
  std::atomic<int> computes{0};
  for (int round = 0; round < 5; ++round) {
    const int v = map.get_or_compute("k", [&] {
      computes.fetch_add(1);
      return 42;
    });
    EXPECT_EQ(v, 42);
  }
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(map.hits(), 4u);
  EXPECT_EQ(map.misses(), 1u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(StripedOnceMapTest, InFlightMarkerBlocksDuplicateWork) {
  // The Phase B race the seed had: two workers miss on the same pair key
  // and both run the expensive detectors. Here the second caller must wait
  // for the first compute instead of duplicating it.
  StripedOnceMap<std::string, int> map(4);
  std::atomic<int> computes{0};
  std::atomic<bool> inside{false};

  auto slow_compute = [&] {
    computes.fetch_add(1);
    inside.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    return 7;
  };

  std::thread first([&] { (void)map.get_or_compute("pair", slow_compute); });
  while (!inside.load()) std::this_thread::yield();
  // First thread is mid-compute; this call must wait and reuse its result.
  const int v = map.get_or_compute("pair", slow_compute);
  first.join();

  EXPECT_EQ(v, 7);
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(map.waits(), 1u);
  EXPECT_EQ(map.hits(), 1u);
  EXPECT_EQ(map.misses(), 1u);
}

TEST(StripedOnceMapTest, FailedComputeIsRetriable) {
  StripedOnceMap<std::string, int> map(2);
  EXPECT_THROW(map.get_or_compute(
                   "k", [&]() -> int { throw std::runtime_error("nope"); }),
               std::runtime_error);
  // The marker was cleared; the next caller recomputes successfully.
  EXPECT_EQ(map.get_or_compute("k", [] { return 9; }), 9);
}

TEST(StripedOnceMapTest, ManyThreadsManyKeys) {
  StripedOnceMap<std::string, std::size_t> map(8);
  std::atomic<std::size_t> computes{0};
  constexpr int kThreads = 8;
  constexpr std::size_t kKeys = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t k = 0; k < kKeys; ++k) {
        const std::size_t v =
            map.get_or_compute("key" + std::to_string(k), [&] {
              computes.fetch_add(1);
              return k * 3;
            });
        EXPECT_EQ(v, k * 3);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(computes.load(), kKeys);  // once per key, never per thread
  EXPECT_EQ(map.size(), kKeys);
}

}  // namespace
