// Durable-sweep bench: what checkpointing costs and what it buys. Sections:
//   1. journaling overhead — a fresh durable sharded sweep vs the monolithic
//      pipeline over the same population (wall time + journal size);
//   2. kill + resume parity — stop after half the shards, resume (a fresh
//      instance's booting incremental() call), and check
//      the merged result is verdict-identical with zero recomputation of
//      committed contracts;
//   3. incremental fraction — upgrade ~1% of the slot-based proxies and
//      measure how much of the population the incremental pass re-analyzes
//      (target: the upgraded fraction, not the population);
//   4. bounded memory — peak-RSS growth of the streaming sweep at 1x vs 4x
//      population with a fixed shard size (the per-shard state, not the
//      population, should set the high-water mark).
// Headline numbers are merged into BENCH_results.json.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_results.h"
#include "core/pipeline.h"
#include "store/durable_sweep.h"
#include "store/journal.h"

namespace {

using namespace proxion;
using namespace proxion::bench;

double time_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::string journal_path(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "proxion_bench_sweep";
  fs::create_directories(dir);
  const fs::path p = dir / name;
  fs::remove(p);
  fs::remove(store::manifest_path_for(p.string()));
  return p.string();
}

/// The deterministic aggregates two sweeps of the same world must agree on.
bool same_verdicts(const core::LandscapeStats& a, const core::LandscapeStats& b) {
  return a.total_contracts == b.total_contracts && a.proxies == b.proxies &&
         a.hidden_proxies == b.hidden_proxies &&
         a.unique_proxy_codehashes == b.unique_proxy_codehashes &&
         a.function_collisions == b.function_collisions &&
         a.storage_collisions == b.storage_collisions &&
         a.exploitable_storage_collisions == b.exploitable_storage_collisions &&
         a.by_standard == b.by_standard &&
         a.upgrade_histogram == b.upgrade_histogram &&
         a.quarantined == b.quarantined;
}

/// VmHWM from /proc/self/status (kB); 0 when unavailable (non-Linux).
double peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0.0;
}

/// Resets the peak-RSS counter so each measured phase gets its own
/// high-water mark. Best effort: a kernel without CLEAR_REFS_MM_HIWATER_RSS
/// leaves the counter monotone and the bench reports deltas of 0.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5\n";
}

}  // namespace

int main() {
  BenchResults results("bench_durable_sweep");
  auto& pop = population();
  const auto inputs = pop.sweep_inputs();
  const std::size_t shard_size = 1'024;
  std::printf("durable-sweep bench over %zu contracts (shard size %zu)\n",
              inputs.size(), shard_size);

  // ---- 1. journaling overhead -------------------------------------------
  core::PipelineConfig config;
  core::AnalysisPipeline mono(*pop.chain, &pop.sources, config);
  core::LandscapeStats mono_stats;
  const double mono_ms =
      time_ms([&] { mono_stats = mono.summarize(mono.run(inputs)); });

  store::DurableSweepConfig sc;
  sc.journal_path = journal_path("overhead.journal");
  sc.shard_size = shard_size;
  core::AnalysisPipeline piped(*pop.chain, &pop.sources, config);
  store::DurableSweep durable(piped, *pop.chain, &pop.sources, sc);
  store::DurableSweepResult fresh;
  const double durable_ms = time_ms([&] { fresh = durable.run(inputs); });
  const double journal_mb =
      static_cast<double>(std::filesystem::file_size(sc.journal_path)) / 1e6;
  const double overhead_pct = (durable_ms - mono_ms) / mono_ms * 100.0;

  heading("checkpointing overhead (monolithic vs durable sharded)");
  row("monolithic pipeline.run", fmt(mono_ms, " ms"));
  row("durable sharded sweep", fmt(durable_ms, " ms"));
  row("overhead", fmt(overhead_pct, " %"));
  row("journal size", fmt(journal_mb, " MB"));
  row("verdicts identical", same_verdicts(fresh.stats, mono_stats) ? "yes" : "NO");
  results.set("monolithic_ms", mono_ms);
  results.set("durable_ms", durable_ms);
  results.set("journal_overhead_pct", overhead_pct);
  results.set("journal_mb", journal_mb);

  // ---- 2. kill + resume parity ------------------------------------------
  {
    store::DurableSweepConfig kc = sc;
    kc.journal_path = journal_path("kill.journal");
    kc.max_shards = (inputs.size() / shard_size) / 2 + 1;  // ~half the sweep
    core::AnalysisPipeline p(*pop.chain, &pop.sources, config);
    store::DurableSweep killed(p, *pop.chain, &pop.sources, kc);
    store::DurableSweepResult partial;
    const double phase1_ms = time_ms([&] { partial = killed.run(inputs); });

    kc.max_shards = 0;
    store::DurableSweep resumed(p, *pop.chain, &pop.sources, kc);
    store::DurableSweepResult merged;
    const double resume_ms =
        time_ms([&] { merged = resumed.incremental(inputs, {}); });

    heading("kill after half the shards + resume");
    row("phase 1 (killed)", fmt(phase1_ms, " ms"));
    row("resume pass", fmt(resume_ms, " ms"));
    row("replayed from journal", std::to_string(merged.replayed));
    row("recomputed by resume", std::to_string(merged.recomputed));
    row("committed work recomputed",
        merged.replayed == partial.recomputed ? "none" : "SOME");
    row("verdicts identical to monolithic",
        same_verdicts(merged.stats, mono_stats) ? "yes" : "NO");
    results.set("resume_phase1_ms", phase1_ms);
    results.set("resume_ms", resume_ms);
    results.set("resume_replayed", static_cast<double>(merged.replayed));
    results.set("resume_recomputed", static_cast<double>(merged.recomputed));
  }

  // ---- 3. incremental fraction after a ~1% upgrade wave ------------------
  {
    store::DurableSweepConfig ic = sc;
    ic.journal_path = journal_path("incremental.journal");
    core::AnalysisPipeline p(*pop.chain, &pop.sources, config);
    store::DurableSweep sweep(p, *pop.chain, &pop.sources, ic);
    sweep.run(inputs);

    const evm::U256 eip1967_slot = evm::U256::from_hex(
        "360894a13ba1a3210667c828492db98dca3e2076cc3735a920a3ca505d382bbc");
    evm::Address new_logic;
    for (const auto& c : pop.contracts) {
      if (c.archetype == datagen::Archetype::kToken) {
        new_logic = c.address;
        break;
      }
    }
    const std::size_t wave = inputs.size() / 100 + 1;  // ~1%
    std::size_t upgraded = 0;
    pop.chain->mine_block();
    for (const auto& c : pop.contracts) {
      if (upgraded >= wave) break;
      if (c.archetype != datagen::Archetype::kEip1967Proxy &&
          c.archetype != datagen::Archetype::kTransparentProxy) {
        continue;
      }
      if (c.logic_truth == new_logic) continue;
      pop.chain->set_storage(c.address, eip1967_slot, new_logic.to_word());
      ++upgraded;
    }
    pop.chain->mine_block();

    store::DurableSweepResult inc;
    const double inc_ms = time_ms([&] { inc = sweep.incremental(inputs, {}); });
    const double frac = 100.0 * static_cast<double>(inc.recomputed) /
                        static_cast<double>(inputs.size());

    heading("incremental re-sweep after upgrading ~1% of slot proxies");
    row("upgraded proxies", std::to_string(upgraded));
    row("incremental pass", fmt(inc_ms, " ms"));
    row("re-analyzed", std::to_string(inc.recomputed) + " (" + fmt(frac, "%") +
                           " of population)");
    row("replayed from journal", std::to_string(inc.replayed));
    row("speedup vs full sweep", fmt(mono_ms / inc_ms, "x"));
    results.set("incremental_upgraded", static_cast<double>(upgraded));
    results.set("incremental_ms", inc_ms);
    results.set("incremental_reanalyzed", static_cast<double>(inc.recomputed));
    results.set("incremental_fraction_pct", frac);
    results.set("incremental_speedup", mono_ms / inc_ms);
  }

  // ---- 4. bounded memory: sharded vs monolithic at 4x scale --------------
  {
    heading("peak-RSS above the fixture (shard size 512, one run per shard)");
    const std::uint32_t base_n = 2'500;
    auto sweep_delta_mb = [&](std::uint32_t n, bool sharded) {
      datagen::PopulationSpec spec;
      spec.total_contracts = n;
      datagen::Population world = datagen::PopulationGenerator().generate(spec);
      const auto world_inputs = world.sweep_inputs();
      core::AnalysisPipeline p(*world.chain, &world.sources, config);
      reset_peak_rss();
      const double before = peak_rss_kb();
      if (sharded) {
        store::DurableSweepConfig mc;
        mc.journal_path = journal_path("memory.journal");
        mc.shard_size = 512;
        store::DurableSweep(p, *world.chain, &world.sources, mc)
            .run(world_inputs);
      } else {
        p.summarize(p.run(world_inputs));
      }
      return (peak_rss_kb() - before) / 1024.0;
    };
    // The fingerprint/donor metadata is O(N) by design (32B+ per contract);
    // it is the per-contract *artifacts* — reports, code blobs, memo
    // entries — that the shard loop keeps bounded. So the claim under test
    // is relative: at 4x population the sharded sweep's high-water delta
    // must stay well under the monolithic pipeline's, which retains every
    // report until summarize().
    const double sharded_1x = sweep_delta_mb(base_n, true);
    const double sharded_4x = sweep_delta_mb(4 * base_n, true);
    const double mono_4x = sweep_delta_mb(4 * base_n, false);
    row("sharded sweep, 1x population", fmt(sharded_1x, " MB peak delta"));
    row("sharded sweep, 4x population", fmt(sharded_4x, " MB peak delta"));
    row("monolithic run, 4x population", fmt(mono_4x, " MB peak delta"));
    const double vs_mono = mono_4x > 0 ? sharded_4x / mono_4x : 0.0;
    row("sharded / monolithic at 4x", fmt(vs_mono, "x (lower is better)"));
    results.set("rss_delta_sharded_1x_mb", sharded_1x);
    results.set("rss_delta_sharded_4x_mb", sharded_4x);
    results.set("rss_delta_monolithic_4x_mb", mono_4x);
    results.set("rss_sharded_vs_monolithic_at_4x", vs_mono);
  }

  results.write();
  return 0;
}
