// §6.1 reproduction: performance. Microbenchmarks (google-benchmark) for
// every hot path — proxy checks, selector extraction, collision checks,
// keccak, the interpreter — plus a macro section reporting the paper's
// headline metrics: ms per proxy check, contracts/second, getStorageAt
// calls per proxy, and the bytecode-dedup ablation.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_results.h"
#include "chain/archive_node.h"
#include "core/function_collision.h"
#include "core/logic_finder.h"
#include "core/proxy_detector.h"
#include "core/selector_extractor.h"
#include "core/selector_grinder.h"
#include "core/storage_collision.h"
#include "core/storage_profile.h"
#include "crypto/eth.h"
#include "crypto/keccak.h"
#include "datagen/contract_factory.h"
#include "evm/disassembler.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace {

using namespace proxion;
using chain::Blockchain;
using datagen::ContractFactory;
using evm::Bytes;
using evm::U256;

struct PerfWorld {
  Blockchain chain;
  evm::Address minimal_proxy, slot_proxy, token, logic, honeypot_proxy,
      honeypot_logic, audius_proxy, audius_logic;

  PerfWorld() {
    const auto deployer = evm::Address::from_label("perf.deployer");
    logic = chain.deploy_runtime(deployer, ContractFactory::token_contract(1));
    minimal_proxy =
        chain.deploy_runtime(deployer, ContractFactory::minimal_proxy(logic));
    slot_proxy =
        chain.deploy_runtime(deployer, ContractFactory::eip1967_proxy());
    // Initialize the slot deep inside history so Algorithm 1 has a real
    // change point to binary-search for.
    chain.mine_until(10'000);
    chain.set_storage(slot_proxy, ContractFactory::eip1967_slot(),
                      logic.to_word());
    token = chain.deploy_runtime(deployer, ContractFactory::token_contract(2));
    honeypot_logic = chain.deploy_runtime(
        deployer, ContractFactory::honeypot_logic(0xdf4a3106));
    honeypot_proxy = chain.deploy_runtime(
        deployer, ContractFactory::honeypot_proxy(U256{1}, 0xdf4a3106));
    chain.set_storage(honeypot_proxy, U256{1}, honeypot_logic.to_word());
    audius_logic =
        chain.deploy_runtime(deployer, ContractFactory::audius_style_logic());
    audius_proxy =
        chain.deploy_runtime(deployer, ContractFactory::audius_style_proxy());
    chain.set_storage(audius_proxy, U256{1}, audius_logic.to_word());
    chain.mine_until(50'000);  // deep history for Algorithm 1
  }
};

PerfWorld& world() {
  static PerfWorld w;
  return w;
}

void BM_Keccak256_32B(benchmark::State& state) {
  std::vector<std::uint8_t> data(32, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::keccak256(data));
  }
}
BENCHMARK(BM_Keccak256_32B);

void BM_Keccak256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::keccak256(data));
  }
}
BENCHMARK(BM_Keccak256_1KiB);

void BM_Disassemble_Token(benchmark::State& state) {
  const Bytes code = ContractFactory::token_contract(1);
  for (auto _ : state) {
    evm::Disassembly dis(code);
    benchmark::DoNotOptimize(dis.instructions().size());
  }
}
BENCHMARK(BM_Disassemble_Token);

void BM_ProxyCheck_MinimalProxy(benchmark::State& state) {
  auto& w = world();
  core::ProxyDetector detector(w.chain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.analyze(w.minimal_proxy).verdict);
  }
}
BENCHMARK(BM_ProxyCheck_MinimalProxy);

void BM_ProxyCheck_SlotProxy(benchmark::State& state) {
  auto& w = world();
  core::ProxyDetector detector(w.chain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.analyze(w.slot_proxy).verdict);
  }
}
BENCHMARK(BM_ProxyCheck_SlotProxy);

void BM_ProxyCheck_NonProxyPrefiltered(benchmark::State& state) {
  // The §4.1 prefilter pays off: a non-proxy without DELEGATECALL never
  // reaches emulation.
  auto& w = world();
  core::ProxyDetector detector(w.chain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.analyze(w.token).verdict);
  }
}
BENCHMARK(BM_ProxyCheck_NonProxyPrefiltered);

void BM_SelectorExtraction_Pattern(benchmark::State& state) {
  const Bytes code = ContractFactory::token_contract(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::extract_selectors(code).size());
  }
}
BENCHMARK(BM_SelectorExtraction_Pattern);

void BM_SelectorExtraction_Naive(benchmark::State& state) {
  const Bytes code = ContractFactory::token_contract(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::extract_selectors_naive(code).size());
  }
}
BENCHMARK(BM_SelectorExtraction_Naive);

void BM_FunctionCollisionCheck(benchmark::State& state) {
  auto& w = world();
  const Bytes proxy_code = w.chain.get_code(w.honeypot_proxy);
  const Bytes logic_code = w.chain.get_code(w.honeypot_logic);
  core::FunctionCollisionDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detector
            .detect(w.honeypot_proxy, proxy_code, w.honeypot_logic,
                    logic_code)
            .has_collision());
  }
}
BENCHMARK(BM_FunctionCollisionCheck);

void BM_StorageProfile_AudiusLogic(benchmark::State& state) {
  const Bytes code = ContractFactory::audius_style_logic();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::profile_storage(code).accesses.size());
  }
}
BENCHMARK(BM_StorageProfile_AudiusLogic);

void BM_StorageCollisionCheck_WithVerification(benchmark::State& state) {
  auto& w = world();
  const Bytes proxy_code = w.chain.get_code(w.audius_proxy);
  const Bytes logic_code = w.chain.get_code(w.audius_logic);
  core::StorageCollisionDetector detector(w.chain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detector.detect(w.audius_proxy, proxy_code, w.audius_logic, logic_code)
            .has_verified_exploit());
  }
}
BENCHMARK(BM_StorageCollisionCheck_WithVerification);

void BM_SelectorGrind_HashRate(benchmark::State& state) {
  // §2.3: the paper ground ~600M prototype hashes in 1.5h (~110k/s) on a
  // laptop. This measures our prototypes-hashed-per-second.
  std::uint64_t i = 0;
  for (auto _ : state) {
    core::GrindConfig config;
    config.match_bits = 32;
    config.max_attempts = 1000;
    config.prefix = "impl" + std::to_string(i++) + "_";
    benchmark::DoNotOptimize(grind_selector(0xdf4a3106, config).has_value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_SelectorGrind_HashRate);

void BM_Artifacts_Recompute(benchmark::State& state) {
  // The per-blob artifacts the collision stage derives for each side of a
  // pair: disassemble, extract selectors, profile storage.
  const Bytes code = ContractFactory::token_contract(1);
  for (auto _ : state) {
    evm::Disassembly dis(code);
    benchmark::DoNotOptimize(core::extract_selectors(dis).size());
    benchmark::DoNotOptimize(core::profile_storage(dis).accesses.size());
  }
}
BENCHMARK(BM_Artifacts_Recompute);

constexpr std::size_t kParallelItems = 256;

void parallel_work_item(std::size_t i) {
  // A few microseconds of keccak per item, roughly one small-blob hash.
  std::vector<std::uint8_t> data(64, static_cast<std::uint8_t>(i));
  benchmark::DoNotOptimize(crypto::keccak256(data));
}

void BM_ParallelFor_SpawnJoinThreads(benchmark::State& state) {
  // The seed pipeline's pattern: spawn N std::threads over static shard
  // ranges, join, repeat for the next phase.
  const unsigned workers = 4;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) {
      threads.emplace_back([t] {
        for (std::size_t i = t; i < kParallelItems; i += 4) {
          parallel_work_item(i);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kParallelItems);
}
BENCHMARK(BM_ParallelFor_SpawnJoinThreads);

void BM_ParallelFor_PersistentPool(benchmark::State& state) {
  // Same work on the persistent work-stealing executor: no thread churn.
  util::ThreadPool pool(4);
  for (auto _ : state) {
    pool.parallel_for(kParallelItems, parallel_work_item);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kParallelItems);
}
BENCHMARK(BM_ParallelFor_PersistentPool);

void BM_Algorithm1_BinarySearch(benchmark::State& state) {
  auto& w = world();
  core::ProxyDetector pd(w.chain);
  const auto report = pd.analyze(w.slot_proxy);
  chain::ArchiveNode node(w.chain);
  core::LogicFinder finder(node);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        finder.find(w.slot_proxy, report).logic_addresses.size());
  }
}
BENCHMARK(BM_Algorithm1_BinarySearch);

void macro_section() {
  using namespace proxion::bench;
  std::printf("\n---- macro metrics (paper §6.1: 6.4 ms/proxy-check = 156.3 "
              "contracts/s;\n      6.7 ms/function-collision check; ~26 "
              "getStorageAt calls/proxy; dedup speedup) ----\n");

  BenchResults results("bench_perf");
  auto& pop = population();

  // Throughput including dedup (the production configuration).
  {
    core::AnalysisPipeline pipeline(*pop.chain, &pop.sources);
    const auto t0 = std::chrono::steady_clock::now();
    const auto reports = pipeline.run(pop.sweep_inputs());
    const auto t1 = std::chrono::steady_clock::now();
    auto stats = pipeline.summarize(reports);
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double per_contract = ms / static_cast<double>(reports.size());
    heading("full pipeline (dedup ON, collisions ON)");
    row("contracts analyzed", std::to_string(reports.size()));
    row("total wall time", fmt(ms, " ms"));
    row("per contract", fmt(per_contract, " ms"));
    row("throughput", fmt(1000.0 / per_contract, " contracts/s"));
    results.set("full_sweep_ms", ms);
    results.set("ms_per_contract", per_contract);
    results.set("contracts_per_s", 1000.0 / per_contract);
    // Telemetry histograms over the same sweep (nanosecond percentiles).
    row("per-contract latency p50/p90/p99",
        fmt(stats.contract_latency_ns.p50 / 1e6) + " / " +
            fmt(stats.contract_latency_ns.p90 / 1e6) + " / " +
            fmt(stats.contract_latency_ns.p99 / 1e6, " ms"));
    row("per-rpc latency p50/p99",
        fmt(stats.rpc_latency_ns.p50 / 1e3) + " / " +
            fmt(stats.rpc_latency_ns.p99 / 1e3, " us"));
    row("emulation steps/probe p50/p99",
        fmt(stats.emulation_steps.p50) + " / " +
            fmt(stats.emulation_steps.p99));
    results.set("contract_latency_p50_ns", stats.contract_latency_ns.p50);
    results.set("contract_latency_p90_ns", stats.contract_latency_ns.p90);
    results.set("contract_latency_p99_ns", stats.contract_latency_ns.p99);
    results.set("rpc_latency_p50_ns", stats.rpc_latency_ns.p50);
    results.set("rpc_latency_p99_ns", stats.rpc_latency_ns.p99);
    results.set("emulation_steps_p50", stats.emulation_steps.p50);
    results.set("emulation_steps_p99", stats.emulation_steps.p99);
    // Process-wide registry snapshot: the absorbed counters (keccak, archive
    // RPCs, thread-pool activity) in machine-readable form.
    for (const auto& [name, value] :
         obs::Registry::global().snapshot().counters) {
      results.set("registry." + name, static_cast<double>(value));
    }
    std::uint64_t slot_proxies = 0, calls = 0;
    for (const auto& r : reports) {
      if (r.proxy.is_proxy() &&
          r.proxy.logic_source == core::LogicSource::kStorageSlot) {
        ++slot_proxies;
        calls += r.logic_history.api_calls;
      }
    }
    if (slot_proxies != 0) {
      row("getStorageAt calls per slot-proxy",
          fmt(static_cast<double>(calls) / static_cast<double>(slot_proxies)));
    }
  }

  // Ablation: dedup OFF (every clone re-analyzed, §6.1's bottleneck).
  {
    core::PipelineConfig config;
    config.dedup_by_code_hash = false;
    config.detect_collisions = false;
    config.find_logic_history = false;
    core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
    const auto t0 = std::chrono::steady_clock::now();
    const auto reports = pipeline.run(pop.sweep_inputs());
    const auto t1 = std::chrono::steady_clock::now();
    const double ms_no_dedup =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    config.dedup_by_code_hash = true;
    core::AnalysisPipeline pipeline2(*pop.chain, &pop.sources, config);
    const auto t2 = std::chrono::steady_clock::now();
    const auto reports2 = pipeline2.run(pop.sweep_inputs());
    const auto t3 = std::chrono::steady_clock::now();
    const double ms_dedup =
        std::chrono::duration<double, std::milli>(t3 - t2).count();

    heading("ablation: bytecode-hash dedup (proxy detection only)");
    row("dedup OFF", fmt(ms_no_dedup, " ms"));
    row("dedup ON", fmt(ms_dedup, " ms"));
    row("speedup", fmt(ms_no_dedup / std::max(ms_dedup, 0.001), "x"));
    results.set("dedup_off_ms", ms_no_dedup);
    results.set("dedup_on_ms", ms_dedup);
    results.set("dedup_speedup_x", ms_no_dedup / std::max(ms_dedup, 0.001));
    (void)reports;
    (void)reports2;
  }

  // Ablation: the selector-hash memo. Nothing else outlives a run, so a
  // repeat sweep over the same population re-hashes every prototype unless
  // the process-wide memo answers it. Both legs run a pipeline twice and
  // compare the second sweep's keccak-counter deltas. Both second sweeps
  // also hash every code blob again (the same keccaks in each leg); the
  // gated ratio counts only the selector hashes the memo can save: the ON
  // leg's memo misses against the OFF leg's total minus the ON leg's
  // non-selector keccaks.
  {
    const auto counter_value = [](const char* name) -> std::uint64_t {
      const auto snap = obs::Registry::global().snapshot();
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0 : it->second;
    };
    struct Leg {
      std::vector<core::ContractAnalysis> first;
      std::vector<core::ContractAnalysis> second;
      std::uint64_t keccak = 0;
      std::uint64_t memo_misses = 0;
      double ms = 0;
    };
    const auto repeat_sweep = [&](bool memo) {
      crypto::set_selector_memo_enabled(memo);
      crypto::clear_selector_memo();
      core::AnalysisPipeline pipeline(*pop.chain, &pop.sources);
      Leg leg;
      leg.first = pipeline.run(pop.sweep_inputs());
      const std::uint64_t keccak0 = counter_value("crypto.keccak.invocations");
      const std::uint64_t misses0 =
          counter_value("crypto.selector_memo.misses");
      const auto t0 = std::chrono::steady_clock::now();
      leg.second = pipeline.run(pop.sweep_inputs());
      leg.ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
      leg.keccak = counter_value("crypto.keccak.invocations") - keccak0;
      leg.memo_misses =
          counter_value("crypto.selector_memo.misses") - misses0;
      return leg;
    };
    const Leg off = repeat_sweep(false);
    const Leg on = repeat_sweep(true);
    const std::uint64_t other_keccak = on.keccak - on.memo_misses;
    const std::uint64_t selector_off =
        off.keccak > other_keccak ? off.keccak - other_keccak : 0;
    const double keccak_reduction =
        static_cast<double>(selector_off) /
        static_cast<double>(std::max<std::uint64_t>(on.memo_misses, 1));

    // The memo must be invisible in the output: every leg and every repeat
    // must produce bit-identical reports.
    bool identical = off.first.size() == off.second.size() &&
                     off.first.size() == on.first.size() &&
                     off.first.size() == on.second.size();
    for (std::size_t i = 0; identical && i < off.first.size(); ++i) {
      identical = off.first[i] == off.second[i] &&
                  off.first[i] == on.first[i] && off.first[i] == on.second[i];
    }

    heading("ablation: selector memo (repeat sweep)");
    row("2nd sweep keccak invocations, memo OFF", std::to_string(off.keccak));
    row("2nd sweep keccak invocations, memo ON", std::to_string(on.keccak));
    row("  of which selector hashes, memo OFF / ON",
        std::to_string(selector_off) + " / " +
            std::to_string(on.memo_misses));
    row("selector keccak reduction", fmt(keccak_reduction, "x"));
    row("2nd sweep wall OFF / ON", fmt(off.ms) + " / " + fmt(on.ms, " ms"));
    row("all four sweeps bit-identical", identical ? "yes" : "NO");
    results.set("sweep2_keccak_off", static_cast<double>(off.keccak));
    results.set("sweep2_keccak_on", static_cast<double>(on.keccak));
    results.set("sweep2_selector_keccak_off",
                static_cast<double>(selector_off));
    results.set("sweep2_selector_keccak_on",
                static_cast<double>(on.memo_misses));
    results.set("selector_memo_keccak_reduction_x", keccak_reduction);
    results.set("raw_speed_sweeps_identical", identical ? 1.0 : 0.0);
  }
  results.write();
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  macro_section();
  return 0;
}
