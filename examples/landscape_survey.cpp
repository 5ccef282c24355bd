// A miniature of the paper's §7 landscape study: generate a synthetic
// Ethereum population, sweep it with the full Proxion pipeline, and print
// the headline findings (proxy share, hidden proxies, standards, collision
// counts, upgrade behaviour). The sweep also records a span trace —
// landscape_trace.json, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing — showing the three phases and per-contract
// sub-analyses.
//
// Durable-sweep operations (see README "Operating a durable sweep"):
//   --checkpoint <path>   stream the sweep through the checkpoint journal
//   --shard-size <n>      contracts per shard (default 1024)
//   --max-shards <n>      stop after n shards (simulates a kill; resume later)
//   --resume              continue from the journal: finish a cut-short
//                         sweep and re-sweep only contracts whose
//                         fingerprint changed since
//
// Live introspection (see README "Live introspection plane"):
//   --serve <port>        serve /metrics, /healthz, /spans on 127.0.0.1
//                         (0 = ephemeral; the bound port is printed) and
//                         keep sweeping so the plane has live data
//   --sweeps <n>          sweeps to run in --serve mode (0 = until killed)
//   --population <n>      synthetic population size (default 4000)
//   --events <path>       append structured NDJSON events to this file
//
// Always-on service (see docs/OPERATIONS.md):
//   --follow              run the chain follower + query plane: one initial
//                         full sweep, then a deterministic mixed workload
//                         (deploys, upgrades, empty blocks) drives
//                         incremental laps; combine with --serve to expose
//                         /v1/contract, /v1/codehash, /v1/vulns, /v1/status
//   --blocks <n>          blocks of workload to mine in --follow mode
//                         (0 = until killed; default 12)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "datagen/contract_factory.h"
#include "datagen/population.h"
#include "obs/eventlog.h"
#include "obs/export.h"
#include "obs/http.h"
#include "serve/follower.h"
#include "serve/query_service.h"
#include "store/durable_sweep.h"

using namespace proxion;

namespace {

struct Options {
  std::string checkpoint;  // empty = classic monolithic run
  std::size_t shard_size = 1024;
  std::size_t max_shards = 0;
  bool resume = false;
  int serve_port = -1;       // >= 0 = introspection-plane serving mode
  std::size_t sweeps = 0;    // serve mode: sweeps to run; 0 = until killed
  std::uint32_t population = 4'000;
  std::string events_path;   // NDJSON event-log sink; empty = in-memory only
  bool follow = false;       // always-on mode: follower + query plane
  std::uint64_t blocks = 12; // follow mode: workload blocks; 0 = until killed
};

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--checkpoint") {
      const char* v = value("--checkpoint");
      if (v == nullptr) return false;
      opt.checkpoint = v;
    } else if (arg == "--shard-size") {
      const char* v = value("--shard-size");
      if (v == nullptr) return false;
      opt.shard_size = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--max-shards") {
      const char* v = value("--max-shards");
      if (v == nullptr) return false;
      opt.max_shards = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--serve") {
      const char* v = value("--serve");
      if (v == nullptr) return false;
      opt.serve_port = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (arg == "--sweeps") {
      const char* v = value("--sweeps");
      if (v == nullptr) return false;
      opt.sweeps = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--population") {
      const char* v = value("--population");
      if (v == nullptr) return false;
      opt.population =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--events") {
      const char* v = value("--events");
      if (v == nullptr) return false;
      opt.events_path = v;
    } else if (arg == "--follow") {
      opt.follow = true;
    } else if (arg == "--blocks") {
      const char* v = value("--blocks");
      if (v == nullptr) return false;
      opt.blocks = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: landscape_survey [--checkpoint <journal> "
                   "[--shard-size N] [--max-shards N] [--resume]] "
                   "[--serve PORT [--sweeps N]] "
                   "[--follow [--blocks N]] "
                   "[--population N] [--events <path>]\n");
      return false;
    }
  }
  if (opt.resume && opt.checkpoint.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint\n");
    return false;
  }
  return true;
}

/// `recomputed`: contracts a durable sweep ran through the pipeline.
void print_stats(const core::LandscapeStats& stats,
                 std::uint64_t recomputed = 0) {
  std::printf("Proxion sweep results:\n");
  std::printf("  contracts analyzed:        %llu\n",
              static_cast<unsigned long long>(stats.total_contracts));
  std::printf("  proxy contracts:           %llu (%.1f%%)  [paper: 54.2%%]\n",
              static_cast<unsigned long long>(stats.proxies),
              100.0 * static_cast<double>(stats.proxies) /
                  static_cast<double>(stats.total_contracts));
  std::printf("  hidden proxies (no src/tx):%llu\n",
              static_cast<unsigned long long>(stats.hidden_proxies));
  std::printf("  emulation errors:          %llu (%.1f%%)  [paper: 4.9%%]\n",
              static_cast<unsigned long long>(stats.emulation_errors),
              100.0 * static_cast<double>(stats.emulation_errors) /
                  static_cast<double>(stats.total_contracts));
  std::printf("  unique proxy codebases:    %llu\n",
              static_cast<unsigned long long>(stats.unique_proxy_codehashes));
  std::printf("  static tier skips:         %llu absent / %llu dead / %llu "
              "eip1167 / %llu runs-to-fuse (%llu emulated, %llu "
              "mismatches)\n",
              static_cast<unsigned long long>(stats.static_skipped_absent),
              static_cast<unsigned long long>(stats.static_skipped_dead),
              static_cast<unsigned long long>(stats.static_skipped_minimal),
              static_cast<unsigned long long>(stats.static_skipped_fuse),
              static_cast<unsigned long long>(stats.static_emulated),
              static_cast<unsigned long long>(stats.static_mismatches));
  if (stats.layout_inferred > 0) {
    std::printf("  storage layouts:           %llu inferred (%llu reliable), "
                "%llu/%llu pairs checked source-free\n",
                static_cast<unsigned long long>(stats.layout_inferred),
                static_cast<unsigned long long>(stats.layout_reliable),
                static_cast<unsigned long long>(
                    stats.collision_pairs_source_free),
                static_cast<unsigned long long>(
                    stats.collision_pairs_family_checked));
  }
  if (stats.sweep_shards > 0) {
    std::printf("  durable sweep:             %llu shards, %llu replayed "
                "from journal, %llu re-analyzed\n",
                static_cast<unsigned long long>(stats.sweep_shards),
                static_cast<unsigned long long>(stats.journal_replayed),
                static_cast<unsigned long long>(recomputed));
    if (stats.selfheal_shards > 0) {
      std::printf("  journal self-heal:         %llu corrupt region(s) "
                  "recomputed\n",
                  static_cast<unsigned long long>(stats.selfheal_shards));
    }
    if (stats.sweep_degraded != 0) {
      std::printf("  DEGRADED MODE:             disk failed mid-sweep; "
                  "verdicts complete, checkpoint stopped at last good "
                  "commit\n");
    }
  }

  std::printf("\n  standards:\n");
  for (const auto& [standard, count] : stats.by_standard) {
    std::printf("    %-10s %llu\n",
                std::string(core::to_string(standard)).c_str(),
                static_cast<unsigned long long>(count));
  }

  std::printf("\n  collisions:\n");
  std::printf("    function collisions: %llu\n",
              static_cast<unsigned long long>(stats.function_collisions));
  std::printf("    storage collisions:  %llu (%llu with verified exploit)\n",
              static_cast<unsigned long long>(stats.storage_collisions),
              static_cast<unsigned long long>(
                  stats.exploitable_storage_collisions));

  std::printf("\n  upgrades: %llu events total; histogram:\n",
              static_cast<unsigned long long>(stats.total_upgrade_events));
  for (const auto& [upgrades, count] : stats.upgrade_histogram) {
    if (upgrades > 5 && count < 2) continue;
    std::printf("    %llu upgrade(s): %llu proxies\n",
                static_cast<unsigned long long>(upgrades),
                static_cast<unsigned long long>(count));
  }

  std::printf("\n  archive-node getStorageAt calls: %llu\n",
              static_cast<unsigned long long>(stats.get_storage_at_calls));

  // Wall-clock-derived telemetry goes to stderr: stdout stays
  // bit-deterministic across runs (analysis results only).
  std::fprintf(stderr, "\n  latency (telemetry histograms):\n");
  std::fprintf(stderr, "    per contract: p50=%.2fms p90=%.2fms p99=%.2fms\n",
               stats.contract_latency_ns.p50 / 1e6,
               stats.contract_latency_ns.p90 / 1e6,
               stats.contract_latency_ns.p99 / 1e6);
  std::fprintf(stderr, "    per rpc:      p50=%.1fus p99=%.1fus (%llu attempts)\n",
               stats.rpc_latency_ns.p50 / 1e3, stats.rpc_latency_ns.p99 / 1e3,
               static_cast<unsigned long long>(stats.rpc_latency_ns.count));
  std::fprintf(stderr, "    steps/probe:  p50=%.0f p99=%.0f\n",
               stats.emulation_steps.p50, stats.emulation_steps.p99);
}

}  // namespace

// --serve mode: keep sweeping the population while the introspection plane
// (exporter + HTTP server) answers /metrics, /healthz and /spans from
// another thread. Returns the process exit code.
int serve_loop(const Options& opt, datagen::Population& pop) {
  obs::EventLogConfig log_config;
  log_config.path = opt.events_path;  // empty = in-memory ring only
  obs::EventLog event_log(log_config);
  obs::SweepStatus status;

  core::PipelineConfig config;
  // No trace file in serving mode — spans are drained live over /spans
  // instead of rewritten to disk after every sweep.
  config.telemetry.live_spans = true;
  config.telemetry.coarse_clock = true;
  config.telemetry.event_log = &event_log;
  config.telemetry.status = &status;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);

  obs::ExporterConfig exp_config;
  exp_config.interval_ms = 250;
  obs::Exporter exporter({&obs::Registry::global(), &pipeline.registry()},
                         exp_config);
  exporter.start();

  obs::HttpServer server;
  server.handle("/metrics", [&exporter](const std::string&) {
    obs::HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = exporter.render_prometheus();
    return r;
  });
  server.handle("/healthz", [&exporter, &status](const std::string&) {
    obs::HttpResponse r;
    r.content_type = "application/json";
    r.body = exporter.render_healthz(&status);
    return r;
  });
  server.handle("/spans", [&pipeline](const std::string&) {
    obs::HttpResponse r;
    r.content_type = "application/x-ndjson";
    const obs::Tracer* tracer = pipeline.tracer();
    r.body = tracer != nullptr ? tracer->ndjson_recent(4096) : std::string();
    return r;
  });
  if (!server.start(static_cast<std::uint16_t>(opt.serve_port))) {
    std::fprintf(stderr, "failed to bind 127.0.0.1:%d\n", opt.serve_port);
    return 1;
  }
  // obs_smoke.sh parses this line for the ephemeral port; keep the format.
  std::printf("serving introspection on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);

  const std::vector<core::SweepInput> inputs = pop.sweep_inputs();
  core::LandscapeStats stats;
  for (std::size_t i = 0; opt.sweeps == 0 || i < opt.sweeps; ++i) {
    if (!opt.checkpoint.empty()) {
      store::DurableSweepConfig sweep_config;
      sweep_config.journal_path = opt.checkpoint;
      sweep_config.shard_size = opt.shard_size;
      sweep_config.event_log = &event_log;
      sweep_config.status = &status;
      store::DurableSweep sweep(pipeline, *pop.chain, &pop.sources,
                                sweep_config);
      store::DurableSweepResult result = sweep.run(inputs);
      if (!result.error.empty()) {
        std::fprintf(stderr, "durable sweep failed: %s\n",
                     result.error.c_str());
        return 1;
      }
      stats = result.stats;
    } else {
      const auto reports = pipeline.run(inputs);
      stats = pipeline.summarize(reports);
    }
  }

  server.stop();
  exporter.stop();
  print_stats(stats);
  std::printf("\nserved %llu scrape(s); %llu event(s) logged\n",
              static_cast<unsigned long long>(server.requests_served()),
              static_cast<unsigned long long>(event_log.emitted()));
  return 0;
}

// --follow mode: the always-on service. One synchronous catch-up sweep seeds
// the query snapshot, then the follower tracks the head in the background
// while a deterministic mixed workload (deploy / upgrade / empty block /
// deploy+same-block-upgrade) mines new blocks. With --serve the query plane
// answers /v1/* next to /metrics and /healthz. serve_smoke.sh parses the
// "follow:" lines; keep their format.
int follow_loop(const Options& opt, datagen::Population& pop) {
  obs::EventLogConfig log_config;
  log_config.path = opt.events_path;
  obs::EventLog event_log(log_config);
  obs::SweepStatus status;

  core::PipelineConfig config;
  config.telemetry.live_spans = true;
  config.telemetry.coarse_clock = true;
  config.telemetry.event_log = &event_log;
  config.telemetry.status = &status;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);

  store::DurableSweepConfig sweep_config;
  sweep_config.journal_path =
      opt.checkpoint.empty() ? "landscape_follow.journal" : opt.checkpoint;
  sweep_config.shard_size = opt.shard_size;
  sweep_config.event_log = &event_log;
  sweep_config.status = &status;

  serve::QueryService query;
  serve::ChainFollowerConfig follower_config;
  follower_config.year_of_block = [](std::uint64_t block) {
    const std::uint64_t year =
        datagen::PopulationGenerator::kFirstYear +
        block / datagen::PopulationGenerator::kBlocksPerYear;
    return static_cast<int>(std::min<std::uint64_t>(
        year, datagen::PopulationGenerator::kLastYear));
  };
  follower_config.event_log = &event_log;
  follower_config.status = &status;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources,
                                sweep_config, query, pop.sweep_inputs(),
                                follower_config);

  obs::ExporterConfig exp_config;
  exp_config.interval_ms = 250;
  obs::Exporter exporter({&obs::Registry::global(), &pipeline.registry()},
                         exp_config);
  obs::HttpServer server;
  const bool serving = opt.serve_port >= 0;
  if (serving) {
    exporter.start();
    server.handle("/metrics", [&exporter](const std::string&) {
      obs::HttpResponse r;
      r.content_type = "text/plain; version=0.0.4; charset=utf-8";
      r.body = exporter.render_prometheus();
      return r;
    });
    server.handle("/healthz", [&exporter, &status](const std::string&) {
      obs::HttpResponse r;
      r.content_type = "application/json";
      r.body = exporter.render_healthz(&status);
      return r;
    });
    server.handle("/spans", [&pipeline](const std::string&) {
      obs::HttpResponse r;
      r.content_type = "application/x-ndjson";
      const obs::Tracer* tracer = pipeline.tracer();
      r.body = tracer != nullptr ? tracer->ndjson_recent(4096) : std::string();
      return r;
    });
    query.register_endpoints(server);
    follower.register_status_endpoint(server);
    if (!server.start(static_cast<std::uint16_t>(opt.serve_port))) {
      std::fprintf(stderr, "failed to bind 127.0.0.1:%d\n", opt.serve_port);
      return 1;
    }
    // obs_smoke.sh/serve_smoke.sh parse this line; keep the format.
    std::printf("serving introspection on 127.0.0.1:%u\n", server.port());
    std::fflush(stdout);
  }

  // Synchronous catch-up: the initial full sweep of the generated population.
  follower.poll();
  follower.start();
  // start() schedules one catch-up poll; fence it before the workload loop
  // mutates the chain (the single-writer contract from serve/follower.h).
  if (!follower.wait_synced(pop.chain->height())) {
    std::fprintf(stderr, "follower failed to sync after start\n");
    follower.stop();
    return 1;
  }
  std::printf("follow: synced head=%llu entries=%llu\n",
              static_cast<unsigned long long>(
                  follower.stats().snapshot_head.load()),
              static_cast<unsigned long long>(
                  follower.stats().snapshot_entries.load()));
  std::fflush(stdout);

  // Upgrade material: the population's EIP-1967 proxies repoint at tokens.
  std::vector<evm::Address> proxies;
  std::vector<evm::Address> logic_pool;
  for (const auto& c : pop.contracts) {
    if (c.archetype == datagen::Archetype::kEip1967Proxy) {
      proxies.push_back(c.address);
    } else if (c.archetype == datagen::Archetype::kToken) {
      logic_pool.push_back(c.address);
    }
  }
  if (proxies.empty() || logic_pool.empty()) {
    std::fprintf(stderr, "population too small for the follow workload\n");
    return 1;
  }

  const evm::Address deployer = evm::Address::from_label("follow-deployer");
  const evm::U256 impl_slot = datagen::ContractFactory::eip1967_slot();
  std::size_t next_proxy = 0;
  std::size_t next_logic = 0;
  std::uint64_t salt = 0x10000;
  for (std::uint64_t i = 0; opt.blocks == 0 || i < opt.blocks; ++i) {
    const std::uint64_t block = pop.chain->height();
    switch (i % 4) {
      case 0: {  // plain deployment: triggers a discovery lap
        const evm::Address addr = pop.chain->deploy_runtime(
            deployer, datagen::ContractFactory::token_contract(salt++));
        std::printf("follow: block=%llu deploy addr=%s\n",
                    static_cast<unsigned long long>(block),
                    addr.to_hex().c_str());
        break;
      }
      case 1: {  // upgrade: impl-slot write on a known proxy
        const evm::Address proxy = proxies[next_proxy++ % proxies.size()];
        const evm::Address impl = logic_pool[next_logic++ % logic_pool.size()];
        pop.chain->set_storage(proxy, impl_slot, impl.to_word());
        std::printf("follow: block=%llu upgrade addr=%s impl=%s\n",
                    static_cast<unsigned long long>(block),
                    proxy.to_hex().c_str(), impl.to_hex().c_str());
        break;
      }
      case 2: {  // empty block: must fast-forward, not lap
        std::printf("follow: block=%llu empty\n",
                    static_cast<unsigned long long>(block));
        break;
      }
      default: {  // deployment + same-block upgrade of the new proxy
        const evm::Address addr = pop.chain->deploy_runtime(
            deployer, datagen::ContractFactory::eip1967_proxy());
        const evm::Address impl = logic_pool[next_logic++ % logic_pool.size()];
        pop.chain->set_storage(addr, impl_slot, impl.to_word());
        std::printf("follow: block=%llu deploy-upgrade addr=%s impl=%s\n",
                    static_cast<unsigned long long>(block),
                    addr.to_hex().c_str(), impl.to_hex().c_str());
        break;
      }
    }
    std::fflush(stdout);
    pop.chain->mine_block();
    // Until-killed runs pace themselves like a (fast) chain so the serving
    // thread is mostly idle between laps; bounded runs mine flat out.
    if (opt.blocks == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    // The chain is single-writer: fence the next mutation on the follower
    // having fully absorbed this block (see serve/follower.h).
    if (!follower.wait_synced(pop.chain->height())) {
      std::fprintf(stderr, "follower failed to sync: %s\n",
                   follower.last_error().c_str());
      follower.stop();
      return 1;
    }
  }

  const serve::FollowerStats& st = follower.stats();
  std::printf("follow: done head=%llu laps=%llu fast_forwards=%llu "
              "entries=%llu discovered=%llu\n",
              static_cast<unsigned long long>(st.snapshot_head.load()),
              static_cast<unsigned long long>(st.laps.load()),
              static_cast<unsigned long long>(st.fast_forwards.load()),
              static_cast<unsigned long long>(st.snapshot_entries.load()),
              static_cast<unsigned long long>(st.contracts_discovered.load()));
  std::fflush(stdout);
  if (serving) {
    server.stop();
    exporter.stop();
    std::printf("served %llu scrape(s); %llu event(s) logged\n",
                static_cast<unsigned long long>(server.requests_served()),
                static_cast<unsigned long long>(event_log.emitted()));
  }
  follower.stop();
  return 0;
}

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) return 2;

  datagen::PopulationSpec spec;
  spec.total_contracts = opt.population;  // default keeps the example snappy
  std::printf("generating a synthetic Ethereum population (~%u contracts, "
              "2015-2023)...\n",
              spec.total_contracts);
  datagen::Population pop = datagen::PopulationGenerator().generate(spec);
  std::printf("  deployed %zu contracts across %llu blocks\n\n",
              pop.contracts.size(),
              static_cast<unsigned long long>(pop.chain->height()));

  if (opt.follow) return follow_loop(opt, pop);
  if (opt.serve_port >= 0) return serve_loop(opt, pop);

  std::optional<obs::EventLog> event_log;
  core::PipelineConfig config;
  config.telemetry.trace_path = "landscape_trace.json";
  if (!opt.events_path.empty()) {
    obs::EventLogConfig log_config;
    log_config.path = opt.events_path;
    event_log.emplace(log_config);
    config.telemetry.event_log = &*event_log;
  }
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);

  if (!opt.checkpoint.empty()) {
    store::DurableSweepConfig sweep_config;
    sweep_config.journal_path = opt.checkpoint;
    sweep_config.shard_size = opt.shard_size;
    sweep_config.max_shards = opt.max_shards;
    if (event_log.has_value()) sweep_config.event_log = &*event_log;
    store::DurableSweep sweep(pipeline, *pop.chain, &pop.sources, sweep_config);
    const std::vector<core::SweepInput> inputs = pop.sweep_inputs();
    store::DurableSweepResult result =
        opt.resume ? sweep.incremental(inputs, {}) : sweep.run(inputs);
    if (!result.error.empty()) {
      std::fprintf(stderr, "durable sweep failed: %s\n", result.error.c_str());
      return 1;
    }
    if (result.degraded && result.disk_error) {
      std::fprintf(stderr, "durable sweep degraded (%s): %s\n",
                   std::string(core::to_string(result.disk_error->kind)).c_str(),
                   result.disk_error->detail.c_str());
    }
    if (!result.complete) {
      std::printf("sweep stopped after %llu shard(s) (%llu contracts "
                  "committed to %s); rerun with --resume to finish\n",
                  static_cast<unsigned long long>(result.shards_run),
                  static_cast<unsigned long long>(result.recomputed),
                  opt.checkpoint.c_str());
      return 0;
    }
    print_stats(result.stats, result.recomputed);
    std::printf("\nThe same sweep drives every bench/bench_* reproduction "
                "binary at larger scale.\n");
    return 0;
  }

  const auto reports = pipeline.run(pop.sweep_inputs());
  auto stats = pipeline.summarize(reports);
  print_stats(stats);
  std::fprintf(stderr, "\n  span trace: landscape_trace.json (%llu spans, %llu "
               "dropped) — open in https://ui.perfetto.dev\n",
               static_cast<unsigned long long>(stats.trace_spans_recorded),
               static_cast<unsigned long long>(stats.trace_spans_dropped));
  std::printf("\nThe same sweep drives every bench/bench_* reproduction "
              "binary at larger scale.\n");
  return 0;
}
