// Query-plane bench: what the lock-free snapshot buys under load. Sections:
//   1. single-thread read rate + p99 latency over the full request path
//      (parse → snapshot load → index lookup → JSON render);
//   2. reader scaling 1 -> min(8, cores) threads hammering the same service
//      (target: near-linear — the snapshot swap is the only shared write);
//   3. reads while the chain follower runs incremental laps: an upgrade
//      workload mines blocks and the follower republishes mid-read, with the
//      staleness ceiling observed after every fenced block.
// Headline numbers are merged into BENCH_results.json; bench_smoke.sh gates
// read_scaling_efficiency >= 0.7 and staleness_blocks_max <= 1.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_results.h"
#include "core/pipeline.h"
#include "datagen/contract_factory.h"
#include "serve/follower.h"
#include "serve/query_service.h"
#include "store/durable_sweep.h"

namespace {

using namespace proxion;
using namespace proxion::bench;

using Clock = std::chrono::steady_clock;

std::string journal_path(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "proxion_bench_query";
  fs::create_directories(dir);
  const fs::path p = dir / name;
  fs::remove(p);
  return p.string();
}

/// The read mix every worker runs: mostly point lookups, with periodic
/// code-hash and vulnerability-class scans so list rendering is in the mix.
struct ReadTargets {
  std::vector<std::string> addresses;  // hex, as a client would send them
  std::string code_hash;
  std::string vuln_query = "class=function_collision";
};

std::uint64_t one_read(const serve::QueryService& query,
                       const ReadTargets& targets, std::uint64_t i) {
  obs::HttpResponse r;
  if (i % 16 == 14) {
    r = query.codehash_endpoint(targets.code_hash);
  } else if (i % 16 == 15) {
    r = query.vulns_endpoint(targets.vuln_query);
  } else {
    r = query.contract_endpoint(targets.addresses[i % targets.addresses.size()]);
  }
  return r.body.size();  // keep the render alive past the optimizer
}

/// Runs `threads` workers for `duration_ms` and returns total reads/s.
double read_rate(const serve::QueryService& query, const ReadTargets& targets,
                 unsigned threads, int duration_ms) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> workers;
  const auto t0 = Clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::uint64_t ops = 0;
      std::uint64_t sink = 0;
      for (std::uint64_t i = t; !stop.load(std::memory_order_relaxed); ++i) {
        sink += one_read(query, targets, i);
        ++ops;
      }
      total.fetch_add(ops + (sink == 0 ? 0 : 0), std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  for (std::thread& w : workers) w.join();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(total.load()) / secs;
}

}  // namespace

int main() {
  BenchResults results("bench_query_service");
  auto& pop = population();
  const auto inputs = pop.sweep_inputs();
  std::printf("query-service bench over %zu contracts\n", inputs.size());

  core::PipelineConfig config;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = journal_path("query.journal");
  serve::QueryService query;
  serve::ChainFollowerConfig fc;
  fc.year_of_block = [](std::uint64_t) { return 2023; };
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                inputs, fc);
  const auto t0 = Clock::now();
  follower.poll();  // the initial full sweep seeds the snapshot
  pop.chain->mine_block();
  follower.poll();  // absorb the generator's open-block tail
  const double seed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  const std::shared_ptr<const serve::Snapshot> snap = query.snapshot();
  ReadTargets targets;
  for (const core::VerdictRow& row : snap->rows) {
    if (targets.addresses.size() >= 256) break;
    targets.addresses.push_back(row.address.to_hex());
    if (targets.code_hash.empty() &&
        row.verdict == core::ProxyVerdict::kProxy) {
      targets.code_hash = "0x" + crypto::to_hex(row.code_hash);
    }
  }

  heading("snapshot seeding");
  row("initial sweep + publish", fmt(seed_ms, " ms"));
  row("snapshot entries", std::to_string(snap->rows.size()));
  results.set("snapshot_entries", static_cast<double>(snap->rows.size()));

  // ---- 1. single-thread rate + p99 over the full request path ------------
  std::vector<std::uint64_t> lat_ns;
  lat_ns.reserve(1 << 15);
  {
    const auto until = Clock::now() + std::chrono::milliseconds(400);
    std::uint64_t i = 0;
    while (Clock::now() < until) {
      const auto s = Clock::now();
      one_read(query, targets, i++);
      lat_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               s)
              .count()));
    }
  }
  std::sort(lat_ns.begin(), lat_ns.end());
  const double p99_ns = static_cast<double>(
      lat_ns[std::min(lat_ns.size() - 1, lat_ns.size() * 99 / 100)]);
  const double rate_1t = read_rate(query, targets, 1, 400);

  heading("single-thread read path (lookup + JSON render)");
  row("reads/s", fmt(rate_1t / 1e3, "k"));
  row("p99 latency", fmt(p99_ns / 1e3, " us"));
  results.set("reads_per_s_1t", rate_1t);
  results.set("read_p99_ns", p99_ns);

  // ---- 2. reader scaling ---------------------------------------------------
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads_max = std::min(8u, hw);
  const double rate_max = threads_max == 1
                              ? rate_1t
                              : read_rate(query, targets, threads_max, 400);
  const double efficiency =
      rate_max / (rate_1t * static_cast<double>(threads_max));

  heading("reader scaling (wait-free snapshot loads)");
  row("threads", std::to_string(threads_max) + " of " + std::to_string(hw) +
                     " cores");
  row("reads/s at max threads", fmt(rate_max / 1e3, "k"));
  row("scaling efficiency", fmt(efficiency * 100.0, " % of linear"));
  results.set("read_threads_max", static_cast<double>(threads_max));
  results.set("reads_per_s_max", rate_max);
  results.set("read_scaling_efficiency", efficiency);

  // ---- 3. reads while incremental laps republish the snapshot -------------
  std::vector<evm::Address> proxies;
  std::vector<evm::Address> tokens;
  for (const auto& c : pop.contracts) {
    if (c.archetype == datagen::Archetype::kEip1967Proxy) {
      proxies.push_back(c.address);
    } else if (c.archetype == datagen::Archetype::kToken) {
      tokens.push_back(c.address);
    }
  }
  const std::uint64_t laps_before = follower.stats().laps.load();
  std::uint64_t staleness_max = 0;
  double rate_during = 0.0;
  if (!proxies.empty() && !tokens.empty()) {
    follower.start();
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> reads{0};
    std::vector<std::thread> readers;
    const unsigned reader_threads = std::max(1u, threads_max / 2);
    const auto t1 = Clock::now();
    for (unsigned t = 0; t < reader_threads; ++t) {
      readers.emplace_back([&, t] {
        std::uint64_t ops = 0;
        for (std::uint64_t i = t; !stop.load(std::memory_order_relaxed); ++i) {
          one_read(query, targets, i);
          ++ops;
        }
        reads.fetch_add(ops, std::memory_order_relaxed);
      });
    }
    const evm::U256 slot = datagen::ContractFactory::eip1967_slot();
    for (std::size_t wave = 0; wave < 8; ++wave) {
      pop.chain->set_storage(proxies[wave % proxies.size()], slot,
                             tokens[wave % tokens.size()].to_word());
      pop.chain->mine_block();
      follower.wait_synced(pop.chain->height());
      // The fence just returned: the snapshot must already cover this head.
      const std::uint64_t chain_head = follower.stats().chain_head.load();
      const std::uint64_t snap_head = follower.stats().snapshot_head.load();
      staleness_max = std::max(
          staleness_max, chain_head > snap_head ? chain_head - snap_head : 0);
    }
    stop.store(true);
    for (std::thread& r : readers) r.join();
    follower.stop();
    const double secs =
        std::chrono::duration<double>(Clock::now() - t1).count();
    rate_during = static_cast<double>(reads.load()) / secs;
  }
  const std::uint64_t laps = follower.stats().laps.load() - laps_before;

  heading("reads during incremental laps (8-block upgrade workload)");
  row("incremental laps", std::to_string(laps));
  row("reads/s while lapping", fmt(rate_during / 1e3, "k"));
  row("max staleness after fence", std::to_string(staleness_max) + " block(s)");
  results.set("follower_laps", static_cast<double>(laps));
  results.set("reads_per_s_during_laps", rate_during);
  results.set("staleness_blocks_max", static_cast<double>(staleness_max));

  results.write();
  return 0;
}
