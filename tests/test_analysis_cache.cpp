// The code-hash-keyed analysis cache: hit/miss accounting per artifact,
// cross-thread visibility (one compute, everyone shares the pointer), the
// striped once-map's in-flight dedup, and eviction-free determinism — the
// pipeline must produce bit-identical results with the cache on and off.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/analysis_cache.h"
#include "core/pipeline.h"
#include "core/selector_extractor.h"
#include "datagen/contract_factory.h"
#include "datagen/population.h"
#include "evm/types.h"

namespace {

using namespace proxion;
using core::AnalysisCache;
using core::StripedOnceMap;
using datagen::ContractFactory;
using evm::Bytes;

Bytes token_code() { return ContractFactory::token_contract(7); }

TEST(AnalysisCacheTest, DisassemblyHitMissAccounting) {
  AnalysisCache cache(8);
  const Bytes code = token_code();
  const crypto::Hash256 hash = evm::code_hash(code);

  const auto first = cache.disassembly(hash, code);
  auto s = cache.stats();
  EXPECT_EQ(s.disassembly_misses, 1u);
  EXPECT_EQ(s.disassembly_hits, 0u);
  EXPECT_EQ(s.entries, 1u);

  const auto second = cache.disassembly(hash, code);
  s = cache.stats();
  EXPECT_EQ(s.disassembly_misses, 1u);
  EXPECT_EQ(s.disassembly_hits, 1u);
  EXPECT_EQ(first.get(), second.get());  // the same shared artifact
}

TEST(AnalysisCacheTest, SelectorsAndProfileShareTheDisassembly) {
  AnalysisCache cache(8);
  const Bytes code = token_code();
  const crypto::Hash256 hash = evm::code_hash(code);

  const auto selectors = cache.selectors(hash, code);
  // Selector extraction computed the disassembly as a byproduct...
  auto s = cache.stats();
  EXPECT_EQ(s.selector_misses, 1u);
  EXPECT_EQ(s.disassembly_misses, 1u);

  // ...which the storage profile then reuses instead of re-sweeping.
  const auto profile = cache.storage_profile(hash, code);
  s = cache.stats();
  EXPECT_EQ(s.profile_misses, 1u);
  EXPECT_EQ(s.disassembly_misses, 1u);
  EXPECT_EQ(s.disassembly_hits, 1u);
  EXPECT_EQ(s.entries, 1u);

  // Artifacts match the uncached computations exactly.
  EXPECT_EQ(*selectors, core::extract_selectors(code));
  EXPECT_EQ(profile->accesses.size(), core::profile_storage(code).accesses.size());
}

TEST(AnalysisCacheTest, DistinctHashesGetDistinctEntries) {
  AnalysisCache cache(4);
  const Bytes a = ContractFactory::token_contract(1);
  const Bytes b = ContractFactory::token_contract(2);
  const auto dis_a = cache.disassembly(evm::code_hash(a), a);
  const auto dis_b = cache.disassembly(evm::code_hash(b), b);
  EXPECT_NE(dis_a.get(), dis_b.get());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().disassembly_misses, 2u);
}

TEST(AnalysisCacheTest, SingleShardStillWorks) {
  AnalysisCache cache(1);
  const Bytes code = token_code();
  const crypto::Hash256 hash = evm::code_hash(code);
  EXPECT_FALSE(cache.selectors(hash, code)->empty());
  EXPECT_EQ(cache.shard_count(), 1u);
}

TEST(AnalysisCacheTest, CrossThreadVisibilityOneComputeManyReaders) {
  AnalysisCache cache(16);
  const Bytes code = token_code();
  const crypto::Hash256 hash = evm::code_hash(code);

  constexpr int kThreads = 8;
  std::vector<const void*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t] = cache.selectors(hash, code).get();
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);  // everyone shares one artifact
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.selector_misses, 1u);  // computed exactly once
  EXPECT_EQ(s.selector_hits, static_cast<std::uint64_t>(kThreads - 1));
}

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

// ---- eviction-free determinism over a real population --------------------

TEST(AnalysisCacheTest, PipelineBitIdenticalWithCacheOnAndOff) {
  datagen::PopulationSpec spec;
  spec.total_contracts = 400;
  datagen::Population pop = datagen::PopulationGenerator().generate(spec);

  core::PipelineConfig cached;
  cached.use_analysis_cache = true;
  core::PipelineConfig uncached;
  uncached.use_analysis_cache = false;

  core::AnalysisPipeline p_on(*pop.chain, &pop.sources, cached);
  core::AnalysisPipeline p_off(*pop.chain, &pop.sources, uncached);
  const auto r_on = p_on.run(pop.sweep_inputs());
  const auto r_off = p_off.run(pop.sweep_inputs());

  ASSERT_EQ(r_on.size(), r_off.size());
  for (std::size_t i = 0; i < r_on.size(); ++i) {
    EXPECT_TRUE(r_on[i] == r_off[i]) << "contract " << i << " diverged";
  }

  // The cached run actually exercised the cache.
  ASSERT_NE(p_on.analysis_cache(), nullptr);
  EXPECT_GT(p_on.analysis_cache()->stats().hits(), 0u);
  EXPECT_EQ(p_off.analysis_cache(), nullptr);
}

TEST(AnalysisCacheTest, WarmRerunIsBitIdenticalAndServedFromCache) {
  datagen::PopulationSpec spec;
  spec.total_contracts = 300;
  datagen::Population pop = datagen::PopulationGenerator().generate(spec);

  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto cold = pipeline.run(pop.sweep_inputs());
  const auto cold_hits = pipeline.analysis_cache()->stats().hits();
  const auto warm = pipeline.run(pop.sweep_inputs());
  const auto warm_hits =
      pipeline.analysis_cache()->stats().hits() - cold_hits;

  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_TRUE(cold[i] == warm[i]) << "contract " << i << " diverged";
  }
  // Entries do not outlive a run, but the second run still shares artifacts
  // across its own stages; the counters keep their lifetime totals.
  EXPECT_GT(warm_hits, 0u);
}

}  // namespace
