#include "workloads.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "chain/archive_node.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "crypto/keccak.h"
#include "datagen/contract_factory.h"
#include "datagen/population.h"
#include "decorators.h"
#include "evm/disassembler.h"
#include "http_client.h"
#include "obs/eventlog.h"
#include "obs/export.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "serve/follower.h"
#include "serve/query_service.h"
#include "spans.h"
#include "static/cfg.h"
#include "static/layout.h"
#include "static/provenance.h"
#include "store/durable_sweep.h"
#include "store/journal.h"
#include "store/records.h"
#include "util/vfs.h"

namespace perfbench {

namespace {

using namespace proxion;

// ---- fixed workload parameters ---------------------------------------------
/// Modelled archive-node round trip of sweep_remote (one JSON-RPC call).
constexpr std::uint64_t kRemoteRoundTripNs = 50'000;
/// serve_reads' nominal open-loop rate, and follow_mixed's background reader.
constexpr double kNominalReadRps = 2'000.0;
constexpr double kFollowReaderRps = 1'000.0;
/// The read latency limit (p99) a ladder rate must hold.
constexpr double kReadLimitMs = 1.0;
/// serve_reads' ladder of offered rates.
constexpr double kLadderRps[] = {1'000, 2'000, 4'000, 8'000, 16'000, 32'000};
/// follow_mixed: visibility poll interval and the per-block deadline.
constexpr std::uint64_t kVisiblePollNs = 250'000;
constexpr double kVisibleDeadlineMs = 10'000.0;
/// follow_mixed needs this many visible blocks so its p90 has >= 10
/// samples beyond it.
constexpr std::size_t kMinVisibleBlocks = 100;
/// Ground-truth disagreements the pipeline is known to make: EIP-2535
/// diamonds (the paper's documented miss) and malformed blobs.
bool known_truth_miss(datagen::Archetype a) {
  return a == datagen::Archetype::kDiamondProxy ||
         a == datagen::Archetype::kBroken;
}

/// Load threads: at most 3, leaving one core for the server.
unsigned generator_threads() {
  const unsigned n = online_cpus();
  return std::clamp(n > 1 ? n - 1 : 1U, 1U, 3U);
}

std::string fmt(const char* f, double a) {
  char buf[128];
  std::snprintf(buf, sizeof buf, f, a);
  return buf;
}

/// Reports whether the traced run confirms a predicted split of work.
void predict(RunResult& out, const std::string& claim, double value,
             bool holds) {
  out.report.push_back("prediction: " + claim + fmt(" (measured %.4g): ", value) +
                       (holds ? "holds" : "DOES NOT HOLD"));
}

std::string hex_of(const crypto::Hash256& h) {
  return "0x" + crypto::to_hex(h);
}

// ---- population, journal and verdict checks --------------------------------

std::unique_ptr<datagen::Population> make_population(std::uint64_t seed,
                                                     std::uint32_t scale,
                                                     double* seconds) {
  Span span("datagen", "PopulationGenerator::generate");
  const std::uint64_t t0 = now_ns();
  datagen::PopulationSpec spec;
  spec.seed = seed;
  spec.total_contracts = scale;
  auto pop = std::make_unique<datagen::Population>(
      datagen::PopulationGenerator().generate(spec));
  *seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return pop;
}

void remove_journal(util::Vfs& vfs, const std::string& path) {
  vfs.remove(path);
  vfs.remove(store::manifest_path_for(path));
  vfs.remove(store::manifest_path_for(path) + ".tmp");
  vfs.remove(store::torn_sidecar_path_for(path));
}

/// Every contract record in the journal, in journal order.
std::vector<store::ContractRecord> journal_records(const std::string& path) {
  std::vector<store::ContractRecord> out;
  const auto replay = store::read_journal(path);
  if (!replay) return out;
  for (const store::JournalFrame& f : replay->frames) {
    if (f.type != store::RecordType::kContract) continue;
    if (auto rec = store::decode_contract_record(f.payload)) {
      out.push_back(std::move(*rec));
    }
  }
  return out;
}

/// Verdicts against the generator's ground-truth labels; only the known
/// misses may disagree.
void check_ground_truth(const datagen::Population& pop,
                                 const std::vector<store::ContractRecord>& recs,
                                 const std::string& what, RunResult& out) {
  std::unordered_map<evm::Address, const store::ContractRecord*,
                     evm::AddressHasher>
      by_addr;
  out.checks.push_back("ground_truth");
  for (const store::ContractRecord& r : recs) by_addr[r.analysis.address] = &r;
  std::uint64_t bad = 0;
  std::string first;
  for (const datagen::DeployedContract& c : pop.contracts) {
    const auto it = by_addr.find(c.address);
    const bool missing = it == by_addr.end();
    const bool wrong =
        !missing && (it->second->analysis.quarantined() ||
                     it->second->analysis.proxy.is_proxy() != c.is_proxy_truth);
    if ((missing || wrong) && !known_truth_miss(c.archetype)) {
      if (bad++ == 0) {
        first = c.address.to_hex() + " (" +
                std::string(datagen::to_string(c.archetype)) +
                (missing ? ", missing)" : ")");
      }
    }
  }
  if (bad > 0) {
    out.failures.push_back(what + ": " + std::to_string(bad) +
                           " verdicts disagree with ground truth, first " +
                           first);
  }
}

/// Records that differ from `reference` (by address), plus missing ones.
std::uint64_t count_record_diffs(
    const std::vector<store::ContractRecord>& reference,
    const std::vector<store::ContractRecord>& got) {
  std::unordered_map<evm::Address, const store::ContractRecord*,
                     evm::AddressHasher>
      by_addr;
  for (const store::ContractRecord& r : got) by_addr[r.analysis.address] = &r;
  std::uint64_t diffs = got.size() > reference.size()
                            ? got.size() - reference.size()
                            : 0;
  for (const store::ContractRecord& r : reference) {
    const auto it = by_addr.find(r.analysis.address);
    if (it == by_addr.end() || !(*it->second == r)) ++diffs;
  }
  return diffs;
}

/// The aggregate verdict counts of a sweep, for a cheap per-sweep check.
std::string stats_digest(const core::LandscapeStats& s) {
  std::string d;
  for (const std::uint64_t v :
       {s.total_contracts, s.proxies, s.emulation_errors, s.hidden_proxies,
        s.unique_proxy_codehashes, s.function_collisions, s.storage_collisions,
        s.exploitable_storage_collisions, s.total_upgrade_events,
        s.family_collisions, s.quarantined}) {
    d += std::to_string(v);
    d += '/';
  }
  for (const auto& [standard, n] : s.by_standard) {
    d += std::to_string(static_cast<int>(standard));
    d += ':';
    d += std::to_string(n);
    d += '/';
  }
  return d;
}

std::uint64_t keccak_counter() {
  return obs::Registry::global().counter("crypto.keccak.invocations").value();
}

// ---- per-layer metric table -------------------------------------------------

const std::vector<Metric>& layer_defaults() {
  static const std::vector<Metric> kDefaults = {
      {"datagen.population_s", 0, "s"},
      {"crypto.keccak_ns_per_perm", 0, "ns"},
      {"crypto.keccak_calls", 0, "count"},
      {"evm.disasm_ns_per_byte", 0, "ns"},
      {"evm.interp_steps", 0, "count"},
      {"evm.interp_ns_per_step", 0, "ns"},
      {"static.cfg_us_per_blob", 0, "us"},
      {"static.layout_us_per_blob", 0, "us"},
      {"static.emulated_share", 0, "ratio"},
      {"chain.code_fetches", 0, "count"},
      {"chain.storage_batches", 0, "count"},
      {"chain.storage_queries", 0, "count"},
      {"chain.probes_per_proxy", 0, "count"},
      {"chain.busy_share", 0, "ratio"},
      {"chain.mine_block_us", 0, "us"},
      {"core.fetch_ms", 0, "ms"},
      {"core.proxy_ms", 0, "ms"},
      {"core.pairs_ms", 0, "ms"},
      {"core.cache_hit_ratio", 0, "ratio"},
      {"util.pool_cpu_share", 0, "ratio"},
      {"store.write_bytes", 0, "bytes"},
      {"store.fsyncs", 0, "count"},
      {"store.fsync_ms", 0, "ms"},
      {"store.read_bytes_per_lap", 0, "bytes"},
      {"store.replay_ms", 0, "ms"},
      {"store.decode_us_per_record", 0, "us"},
      {"store.driver_ms", 0, "ms"},
      {"serve.lap_ms_p50", 0, "ms"},
      {"serve.fast_forward_ms_p50", 0, "ms"},
      {"serve.publish_ms", 0, "ms"},
      {"serve.render_contract_us", 0, "us"},
      {"serve.render_codehash_us", 0, "us"},
      {"serve.render_vulns_us", 0, "us"},
      {"obs.http_rtt_us", 0, "us"},
      {"obs.metrics_render_us", 0, "us"},
      {"bench.gen_late_ms_p99", 0, "ms"},
      {"bench.trace_overhead_pct", 0, "%"},
  };
  return kDefaults;
}

MetricSet fresh_layer_metrics() {
  MetricSet m;
  for (const Metric& d : layer_defaults()) m.set(d.name, d.value, d.unit);
  return m;
}

void set_layer(MetricSet& m, const std::string& name, double value) {
  for (const Metric& d : layer_defaults()) {
    if (d.name == name) {
      m.set(name, value, d.unit);
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

/// Times `fn` `reps` times and returns the median in ns.
template <typename Fn>
double median_ns(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(std::move(t));
}

/// The module-level probes every traced run ends with: calls into each
/// module's public functions over this run's population and records.
/// `status_port` is a live server answering /v1/status (0 = start one).
void layer_probes(const datagen::Population& pop,
                  const std::vector<store::ContractRecord>& records,
                  const std::string& journal,
                  const obs::Registry& pipeline_registry,
                  std::uint16_t status_port, MetricSet& m) {
  // One representative blob per code hash, as the pipeline dedups them.
  struct Blob {
    const store::ContractRecord* rec;
    evm::Bytes code;
  };
  std::vector<Blob> blobs;
  {
    std::set<crypto::Hash256> seen;
    for (const store::ContractRecord& r : records) {
      if (r.analysis.quarantined() || !seen.insert(r.code_hash).second) {
        continue;
      }
      blobs.push_back(Blob{&r, pop.chain->code_at(r.analysis.address)});
    }
  }
  if (blobs.empty()) return;
  std::uint64_t sink = 0;

  {  // crypto: keccak over the unique blobs
    Span span("crypto", "keccak256");
    double perms = 0;  // one per started 136-byte rate block, padding included
    for (const Blob& b : blobs) {
      perms += static_cast<double>(b.code.size() / 136 + 1);
    }
    const double ns = median_ns(3, [&] {
      for (const Blob& b : blobs) sink += crypto::keccak256(b.code)[0];
    });
    set_layer(m, "crypto.keccak_ns_per_perm", ns / perms);
  }
  {  // evm: disassembly
    Span span("evm", "Disassembly");
    double bytes = 0;
    for (const Blob& b : blobs) bytes += static_cast<double>(b.code.size());
    const double ns = median_ns(3, [&] {
      for (const Blob& b : blobs) {
        const evm::Disassembly dis(b.code);
        sink += dis.instructions().size();
      }
    });
    set_layer(m, "evm.disasm_ns_per_byte", ns / std::max(bytes, 1.0));
  }
  {  // static: CFG + provenance, then layout inference
    Span span("static", "recover_cfg+analyze+infer_layout");
    std::uint64_t cfg_ns = 0, layout_ns = 0, emulated = 0;
    for (const Blob& b : blobs) {
      const evm::Disassembly dis(b.code);
      const std::uint64_t t0 = now_ns();
      const static_analysis::Cfg cfg = static_analysis::recover_cfg(dis);
      const static_analysis::StaticReport rep = static_analysis::analyze(dis);
      const std::uint64_t t1 = now_ns();
      const static_analysis::StorageLayout layout =
          static_analysis::infer_layout(dis, cfg);
      layout_ns += now_ns() - t1;
      cfg_ns += t1 - t0;
      sink += cfg.blocks.size() + layout.members.size() +
              static_cast<std::uint64_t>(rep.sites.size());
      if (b.rec->analysis.proxy.static_triage == core::StaticTriage::kEmulated) {
        ++emulated;
      }
    }
    const double n = static_cast<double>(blobs.size());
    set_layer(m, "static.cfg_us_per_blob", static_cast<double>(cfg_ns) / n / 1e3);
    set_layer(m, "static.layout_us_per_blob",
              static_cast<double>(layout_ns) / n / 1e3);
    set_layer(m, "static.emulated_share", static_cast<double>(emulated) / n);
  }
  {  // evm: interpreter, static tier off, on every blob the sweep emulated
    Span span("evm", "ProxyDetector::analyze_code");
    core::ProxyDetectorConfig dc;  // static tier off by default
    core::ProxyDetector detector(*pop.chain, dc, nullptr);
    std::uint64_t ns = 0, steps = 0;
    for (const Blob& b : blobs) {
      if (b.rec->analysis.proxy.emulation_steps == 0) continue;
      const std::uint64_t t0 = now_ns();
      const core::ProxyReport rep =
          detector.analyze_code(b.rec->analysis.address, b.code);
      ns += now_ns() - t0;
      steps += rep.emulation_steps;
    }
    if (steps > 0) {
      set_layer(m, "evm.interp_ns_per_step",
                static_cast<double>(ns) / static_cast<double>(steps));
    }
  }
  {  // store: journal replay and record decoding
    Span span("store", "read_journal+decode");
    std::optional<store::JournalReplay> replay;
    const double replay_ns =
        median_ns(3, [&] { replay = store::read_journal(journal); });
    set_layer(m, "store.replay_ms", replay_ns / 1e6);
    if (replay) {
      std::uint64_t n = 0;
      const std::uint64_t t0 = now_ns();
      for (const store::JournalFrame& f : replay->frames) {
        if (f.type != store::RecordType::kContract) continue;
        sink += store::decode_contract_record(f.payload).has_value() ? 1 : 0;
        ++n;
      }
      if (n > 0) {
        set_layer(m, "store.decode_us_per_record",
                  static_cast<double>(now_ns() - t0) / 1e3 /
                      static_cast<double>(n));
      }
    }
  }
  {  // serve: snapshot publish and the in-process /v1 renderers
    Span span("serve", "QueryService");
    serve::QueryService query;
    query.apply_records(records);
    const double publish_ns =
        median_ns(3, [&] { sink += query.publish(pop.chain->height())->version; });
    set_layer(m, "serve.publish_ms", publish_ns / 1e6);
    const auto snap = query.snapshot();
    const std::size_t rows = snap->rows.size();
    constexpr int kRenders = 400;
    std::uint64_t t0 = now_ns();
    for (int i = 0; i < kRenders; ++i) {
      const auto& row = snap->rows[(static_cast<std::size_t>(i) * 7919) % rows];
      sink += query.contract_endpoint(row.address.to_hex()).body.size();
    }
    set_layer(m, "serve.render_contract_us",
              static_cast<double>(now_ns() - t0) / 1e3 / kRenders);
    const crypto::Hash256* biggest = nullptr;
    std::size_t biggest_n = 0;
    for (const auto& [hash, members] : snap->by_code_hash) {
      if (members.size() > biggest_n) {
        biggest_n = members.size();
        biggest = &hash;
      }
    }
    if (biggest != nullptr) {
      t0 = now_ns();
      for (int i = 0; i < kRenders; ++i) {
        sink += query.codehash_endpoint(hex_of(*biggest)).body.size();
      }
      set_layer(m, "serve.render_codehash_us",
                static_cast<double>(now_ns() - t0) / 1e3 / kRenders);
    }
    t0 = now_ns();
    for (int i = 0; i < kRenders; ++i) {
      sink += query.vulns_endpoint("class=function_collision").body.size();
    }
    set_layer(m, "serve.render_vulns_us",
              static_cast<double>(now_ns() - t0) / 1e3 / kRenders);
  }
  {  // obs: Prometheus rendering and an idle loopback round trip
    Span span("obs", "Exporter::render_prometheus");
    obs::Exporter exporter({&obs::Registry::global(), &pipeline_registry});
    exporter.tick();
    std::vector<double> t;
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t t0 = now_ns();
      sink += exporter.render_prometheus().size();
      t.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    set_layer(m, "obs.metrics_render_us", median(std::move(t)));
  }
  {
    obs::HttpServer temp;
    std::uint16_t port = status_port;
    if (port == 0) {
      // No service in this workload: a server with a /v1/status-sized
      // constant answer measures the same transport.
      temp.handle("/v1/status", [](const std::string&) {
        obs::HttpResponse r;
        r.content_type = "application/json";
        r.body = "{\"following\":false}\n";
        return r;
      });
      if (temp.start(0)) port = temp.port();
    }
    if (port != 0) {
      std::vector<double> t;
      for (int i = 0; i < 300; ++i) {
        const std::uint64_t t0 = now_ns();
        sink += static_cast<std::uint64_t>(http_get(port, "/v1/status").status);
        t.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      }
      set_layer(m, "obs.http_rtt_us", median(std::move(t)));
    }
    temp.stop();
  }
  if (sink == 0) std::fprintf(stderr, "perfbench: empty probe sink\n");
}

/// Span-derived per-layer table lines plus the tracing overhead line.
void report_trace(const RunOptions& opt, double overhead_pct, RunResult& out) {
  out.report.push_back("per-layer spans (count, busy ms, self ms):");
  for (const auto& [layer, t] : layer_totals()) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-8s %10llu %12.3f %12.3f", layer.c_str(),
                  static_cast<unsigned long long>(t.count), t.busy_ms,
                  t.self_ms);
    out.report.push_back(buf);
  }
  out.report.push_back(
      fmt("tracing overhead (traced minus untraced op time): %.2f%%",
          overhead_pct));
  if (!opt.trace_path.empty()) {
    std::uint64_t written = 0, dropped = 0;
    if (write_chrome_trace(opt.trace_path, &written, &dropped)) {
      out.report.push_back("chrome trace: " + opt.trace_path + " (" +
                           std::to_string(written) + " spans, " +
                           std::to_string(dropped) + " beyond the cap)");
    }
  }
}

double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  const double u = median(untraced);
  return u > 0 ? 100.0 * (median(traced) - u) / u : 0.0;
}

// ---- set-up timing ------------------------------------------------------------

struct SetupTimes {
  double setup_s = 0;  // process CPU time of the set-up, all threads
  double wall_s = 0;
  double gen_s = 0;  // population generation wall time, part of wall_s
};

/// Runs `setup` in a forked child and returns what it measured. Children
/// are forked before this process has run any set-up, so each starts as
/// cold as a fresh process and pays the process-global memos.
SetupTimes setup_in_child(const std::function<SetupTimes()>& setup) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork() failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    SetupTimes t{-1, -1, -1};
    try {
      t = setup();
    } catch (...) {
    }
    const bool sent = ::write(fds[1], &t, sizeof t) == sizeof t;
    // No destructors and no stdio flush; every thread of the child ends.
    ::_exit(sent && t.setup_s >= 0 ? 0 : 1);
  }
  ::close(fds[1]);
  SetupTimes t{-1, -1, -1};
  ssize_t got = 0;
  do {
    got = ::read(fds[0], &t, sizeof t);
  } while (got < 0 && errno == EINTR);
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof t || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up failed in a child process");
  }
  return t;
}

/// Times kSetupsPerRun cold set-ups, all but the last in forked children and
/// the last in this process, which keeps its state. Returns the medians.
SetupTimes cold_setups(const std::function<SetupTimes()>& setup) {
  std::vector<double> setups, walls, gens;
  for (int k = 0; k < kSetupsPerRun; ++k) {
    const SetupTimes t =
        k + 1 < kSetupsPerRun ? setup_in_child(setup) : setup();
    setups.push_back(t.setup_s);
    walls.push_back(t.wall_s);
    gens.push_back(t.gen_s);
  }
  return {median(std::move(setups)), median(std::move(walls)),
          median(std::move(gens))};
}

// ---- sweep workloads ----------------------------------------------------------

struct SweepSample {
  double wall_ms = 0;
  double cpu_s = 0;
  core::LandscapeStats stats;
  ArchiveCounts archive;
  VfsCounts vfs;
  std::uint64_t keccaks = 0;
};

/// One cold durable sweep: a fresh pipeline with the default config (plus
/// `archive` as its backend when set) into a fresh journal.
SweepSample cold_sweep(datagen::Population& pop,
                       const std::vector<core::SweepInput>& inputs,
                       const std::string& journal,
                       RemoteArchiveNode* archive, TimingVfs* vfs,
                       std::string* error) {
  remove_journal(util::Vfs::real(), journal);
  core::PipelineConfig config;
  config.archive_node = archive;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sweep_config;
  sweep_config.journal_path = journal;
  sweep_config.vfs = vfs;
  store::DurableSweep sweep(pipeline, *pop.chain, &pop.sources, sweep_config);
  if (archive != nullptr) archive->reset();
  if (vfs != nullptr) vfs->reset();
  SweepSample s;
  const std::uint64_t k0 = keccak_counter();
  const double cpu0 = process_cpu_s();
  const std::uint64_t t0 = now_ns();
  store::DurableSweepResult result;
  {
    Span span("store", "DurableSweep::run");
    result = sweep.run(inputs);
  }
  s.wall_ms = static_cast<double>(now_ns() - t0) / 1e6;
  s.cpu_s = process_cpu_s() - cpu0;
  s.keccaks = keccak_counter() - k0;
  s.stats = std::move(result.stats);
  if (archive != nullptr) s.archive = archive->counts();
  if (vfs != nullptr) s.vfs = vfs->counts();
  if (!result.error.empty() || !result.complete || result.degraded) {
    *error = result.error.empty() ? "sweep incomplete or degraded"
                                  : result.error;
  }
  return s;
}

RunResult run_sweeps(const RunOptions& opt, bool remote) {
  RunResult out;
  const std::string journal = opt.work_dir + "/sweep.journal";
  std::unique_ptr<datagen::Population> pop;
  std::string error;
  SweepSample warm;
  // Set-up: population generation plus the warm-up sweep. The first sweep
  // in a process pays process-global memos; the warm-up is a plain cold
  // sweep and doubles as the reference result.
  const SetupTimes setup = cold_setups([&] {
    SetupTimes t;
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    pop = make_population(opt.seed, opt.scale, &t.gen_s);
    warm = cold_sweep(*pop, pop->sweep_inputs(), journal, nullptr, nullptr,
                      &error);
    t.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    t.setup_s = process_cpu_s() - cpu0;
    return t;
  });
  const std::vector<core::SweepInput> inputs = pop->sweep_inputs();
  const std::vector<store::ContractRecord> reference = journal_records(journal);
  const std::string ref_digest = stats_digest(warm.stats);
  if (!error.empty()) out.failures.push_back("warm-up sweep: " + error);
  if (reference.size() != inputs.size()) {
    out.failures.push_back("warm-up journal holds " +
                           std::to_string(reference.size()) + " records for " +
                           std::to_string(inputs.size()) + " inputs");
  }
  check_ground_truth(*pop, reference, "warm-up sweep", out);

  chain::ArchiveNode base(*pop->chain);
  // sweep_remote's modelled backend; the traced sweep_cold run counts
  // through the same decorator with no delay.
  RemoteArchiveNode archive(base, remote ? kRemoteRoundTripNs : 0);
  TimingVfs vfs(util::Vfs::real());

  std::vector<SweepSample> traced, untraced;
  const std::uint64_t loop_t0 = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - loop_t0) / 1e9;
  };
  std::uint64_t digest_mismatches = 0, quarantined = 0;
  for (std::size_t i = 0;
       elapsed_s() < opt.seconds || traced.size() + untraced.size() < 3; ++i) {
    // Traced runs alternate traced and untraced sweeps for the overhead.
    const bool trace_this = opt.trace && i % 2 == 0;
    set_tracing(trace_this);
    const bool decorate = remote || trace_this;
    SweepSample s = cold_sweep(*pop, inputs, journal,
                               decorate ? &archive : nullptr,
                               trace_this ? &vfs : nullptr, &error);
    set_tracing(false);
    if (!error.empty()) {
      out.failures.push_back("sweep " + std::to_string(i) + ": " + error);
      error.clear();
    }
    if (stats_digest(s.stats) != ref_digest) ++digest_mismatches;
    quarantined += s.stats.quarantined;
    (trace_this ? traced : untraced).push_back(std::move(s));
  }
  const std::size_t sweeps = traced.size() + untraced.size();
  // Full record comparison of the last sweep against the warm-up (for
  // sweep_remote: the remote sweep against a cold in-process one).
  const std::uint64_t record_diffs =
      count_record_diffs(reference, journal_records(journal));
  out.checks.push_back(remote ? "remote_equals_cold" : "sweeps_equal_warmup");
  if (digest_mismatches > 0) {
    out.failures.push_back(std::to_string(digest_mismatches) +
                           " sweeps' aggregate verdicts differ from the "
                           "warm-up sweep");
  }
  if (record_diffs > 0) {
    out.failures.push_back(std::to_string(record_diffs) +
                           std::string(" records of the last sweep differ from "
                                       "the cold warm-up sweep") +
                           (remote ? " (sweep_remote vs sweep_cold)" : ""));
  }
  out.attempted = sweeps * inputs.size();
  out.failed = quarantined + record_diffs + digest_mismatches;

  std::vector<double> wall;  // untraced sweeps only
  for (const SweepSample& s : untraced) wall.push_back(s.wall_ms);
  const double contracts = static_cast<double>(inputs.size());
  const double wall_p50 = median(wall);
  out.detail.set("sweep_contracts_per_s", contracts / (wall_p50 / 1e3), "1/s");
  out.detail.set("sweep_ms_p50", wall_p50, "ms");
  out.detail.set("sweep_ms_p90", percentile(wall, 0.9), "ms");
  std::vector<double> cpu_ms;  // untraced sweeps only
  for (const SweepSample& s : untraced) cpu_ms.push_back(s.cpu_s * 1e3);
  out.detail.set("sweep_cpu_ms_p50", median(cpu_ms), "ms");
  out.detail.set("sweeps", static_cast<double>(wall.size()), "count");
  out.detail.set("contracts", contracts, "count");
  out.detail.set("setup_wall_s", setup.wall_s, "s");
  out.detail.set("peak_rss_mb", peak_rss_mb(), "MiB");

  if (!opt.trace) {
    out.metrics.set("setup_s", setup.setup_s, "s");
    out.metrics.set("cpu_ms_per_op", median(cpu_ms), "ms");
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  MetricSet m = fresh_layer_metrics();
  set_layer(m, "datagen.population_s", setup.gen_s);
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const SweepSample& s : traced) v.push_back(field(s));
    return median(std::move(v));
  };
  const double threads = static_cast<double>(online_cpus());
  set_layer(m, "crypto.keccak_calls",
            med([](const SweepSample& s) { return double(s.keccaks); }));
  set_layer(m, "chain.code_fetches",
            med([](const SweepSample& s) { return double(s.archive.code_fetches); }));
  set_layer(m, "chain.storage_batches", med([](const SweepSample& s) {
              return double(s.archive.storage_batches + s.archive.storage_calls);
            }));
  set_layer(m, "chain.storage_queries", med([](const SweepSample& s) {
              return double(s.archive.storage_queries);
            }));
  set_layer(m, "chain.probes_per_proxy", med([](const SweepSample& s) {
              return s.stats.proxies > 0 ? double(s.archive.storage_queries) /
                                               double(s.stats.proxies)
                                         : 0.0;
            }));
  set_layer(m, "chain.busy_share", med([&](const SweepSample& s) {
              return double(s.archive.busy_ns) / 1e6 / (s.wall_ms * threads);
            }));
  set_layer(m, "core.fetch_ms",
            med([](const SweepSample& s) { return s.stats.phase_fetch_ms; }));
  set_layer(m, "core.proxy_ms",
            med([](const SweepSample& s) { return s.stats.phase_proxy_ms; }));
  set_layer(m, "core.pairs_ms",
            med([](const SweepSample& s) { return s.stats.phase_pairs_ms; }));
  set_layer(m, "core.cache_hit_ratio", med([](const SweepSample& s) {
              const double h = double(s.stats.cache.hits());
              const double t = h + double(s.stats.cache.misses());
              return t > 0 ? h / t : 0.0;
            }));
  set_layer(m, "util.pool_cpu_share", med([&](const SweepSample& s) {
              return s.cpu_s * 1e3 / (s.wall_ms * threads);
            }));
  set_layer(m, "store.write_bytes",
            med([](const SweepSample& s) { return double(s.vfs.write_bytes); }));
  set_layer(m, "store.fsyncs",
            med([](const SweepSample& s) { return double(s.vfs.fsyncs); }));
  set_layer(m, "store.fsync_ms",
            med([](const SweepSample& s) { return double(s.vfs.fsync_ns) / 1e6; }));
  set_layer(m, "store.read_bytes_per_lap",
            med([](const SweepSample& s) { return double(s.vfs.read_bytes); }));
  set_layer(m, "store.driver_ms", med([](const SweepSample& s) {
              return s.wall_ms - s.stats.phase_fetch_ms - s.stats.phase_proxy_ms -
                     s.stats.phase_pairs_ms - double(s.vfs.io_ns) / 1e6;
            }));
  std::uint64_t steps = 0;
  for (const store::ContractRecord& r : reference) {
    if (!r.analysis.deduplicated) steps += r.analysis.proxy.emulation_steps;
  }
  set_layer(m, "evm.interp_steps", static_cast<double>(steps));

  std::vector<double> traced_wall;
  for (const SweepSample& s : traced) traced_wall.push_back(s.wall_ms);
  const double ovh = overhead_pct(traced_wall, wall);
  set_layer(m, "bench.trace_overhead_pct", ovh);

  const double busy = m.get("chain.busy_share");
  if (remote) {
    predict(out, "chain.busy_share >= 0.5 on sweep_remote", busy, busy >= 0.5);
  } else {
    predict(out, "chain.busy_share < 0.1 on sweep_cold", busy, busy < 0.1);
  }
  set_tracing(true);
  {
    core::AnalysisPipeline probe_pipeline(*pop->chain, &pop->sources);
    layer_probes(*pop, reference, journal, probe_pipeline.registry(), 0, m);
  }
  set_tracing(false);
  out.metrics = std::move(m);
  report_trace(opt, ovh, out);
  return out;
}

// ---- the service stack (follow_mixed, serve_reads) ----------------------------

/// What `landscape_survey --follow --serve` assembles: pipeline, durable
/// sweep journal, chain follower, query plane, exporter and HTTP server.
/// Members are declared in dependency order, so destruction stops the
/// server first and the population last.
struct ServiceStack {
  std::unique_ptr<datagen::Population> pop;
  obs::EventLog event_log;
  obs::SweepStatus status;
  std::unique_ptr<chain::ArchiveNode> base_node;
  std::unique_ptr<RemoteArchiveNode> counting;  // traced runs only
  std::unique_ptr<TimingVfs> vfs;               // traced runs only
  std::unique_ptr<core::AnalysisPipeline> pipeline;
  serve::QueryService query;
  std::unique_ptr<serve::ChainFollower> follower;
  std::unique_ptr<obs::Exporter> exporter;
  obs::HttpServer server;
  std::string journal;
  double gen_s = 0;
  /// Whether the follower runs its own poll thread (untraced runs) or the
  /// benchmark drives poll() (traced runs, to time laps).
  bool background = true;

  ~ServiceStack() {
    server.stop();
    if (exporter) exporter->stop();
    if (follower) follower->stop();
  }
};

std::unique_ptr<ServiceStack> build_stack(const RunOptions& opt,
                                          bool background) {
  auto st = std::make_unique<ServiceStack>();
  st->background = background;
  st->journal = opt.work_dir + "/follow.journal";
  remove_journal(util::Vfs::real(), st->journal);
  st->pop = make_population(opt.seed, opt.scale, &st->gen_s);
  datagen::Population& pop = *st->pop;

  core::PipelineConfig config;
  config.telemetry.live_spans = true;
  config.telemetry.coarse_clock = true;
  config.telemetry.event_log = &st->event_log;
  config.telemetry.status = &st->status;
  if (opt.trace) {
    st->base_node = std::make_unique<chain::ArchiveNode>(*pop.chain);
    st->counting = std::make_unique<RemoteArchiveNode>(*st->base_node, 0);
    st->vfs = std::make_unique<TimingVfs>(util::Vfs::real());
    config.archive_node = st->counting.get();
  }
  st->pipeline =
      std::make_unique<core::AnalysisPipeline>(*pop.chain, &pop.sources, config);

  store::DurableSweepConfig sweep_config;
  sweep_config.journal_path = st->journal;
  sweep_config.event_log = &st->event_log;
  sweep_config.status = &st->status;
  sweep_config.vfs = st->vfs.get();
  serve::ChainFollowerConfig follower_config;
  follower_config.year_of_block = [](std::uint64_t block) {
    const std::uint64_t year =
        datagen::PopulationGenerator::kFirstYear +
        block / datagen::PopulationGenerator::kBlocksPerYear;
    return static_cast<int>(std::min<std::uint64_t>(
        year, datagen::PopulationGenerator::kLastYear));
  };
  follower_config.event_log = &st->event_log;
  follower_config.status = &st->status;
  st->follower = std::make_unique<serve::ChainFollower>(
      *st->pipeline, *pop.chain, &pop.sources, sweep_config, st->query,
      pop.sweep_inputs(), follower_config);

  obs::ExporterConfig exp_config;
  exp_config.interval_ms = 250;
  st->exporter = std::make_unique<obs::Exporter>(
      std::vector<const obs::Registry*>{&obs::Registry::global(),
                                        &st->pipeline->registry()},
      exp_config);
  st->exporter->start();
  obs::Exporter& exporter = *st->exporter;
  obs::SweepStatus& status = st->status;
  core::AnalysisPipeline& pipeline = *st->pipeline;
  st->server.handle("/metrics", [&exporter](const std::string&) {
    obs::HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = exporter.render_prometheus();
    return r;
  });
  st->server.handle("/healthz", [&exporter, &status](const std::string&) {
    obs::HttpResponse r;
    r.content_type = "application/json";
    r.body = exporter.render_healthz(&status);
    return r;
  });
  st->server.handle("/spans", [&pipeline](const std::string&) {
    obs::HttpResponse r;
    r.content_type = "application/x-ndjson";
    const obs::Tracer* tracer = pipeline.tracer();
    r.body = tracer != nullptr ? tracer->ndjson_recent(4096) : std::string();
    return r;
  });
  st->query.register_endpoints(st->server);
  st->follower->register_status_endpoint(st->server);
  // The accept thread inherits this placement: one CPU of its own.
  pin_thread_to_cpu(server_cpu());
  const bool bound = st->server.start(0);
  unpin_thread();
  if (!bound) throw std::runtime_error("cannot bind a loopback HTTP port");

  // Synchronous catch-up: the seed sweep of the generated population.
  {
    Span span("serve", "ChainFollower::poll");
    st->follower->poll();
  }
  if (background) {
    st->follower->start();
    if (!st->follower->wait_synced(pop.chain->height())) {
      throw std::runtime_error("follower failed to sync after start");
    }
  }
  return st;
}

/// Builds the stack kSetupsPerRun times from cold (keeping the last) and
/// records the median set-up time.
std::unique_ptr<ServiceStack> setup_stack(const RunOptions& opt,
                                          bool background, SetupTimes* setup) {
  std::unique_ptr<ServiceStack> st;
  *setup = cold_setups([&] {
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    st = build_stack(opt, background);
    return SetupTimes{process_cpu_s() - cpu0,
                      static_cast<double>(now_ns() - t0) / 1e9, st->gen_s};
  });
  return st;
}

/// The serve_reads request mix over one snapshot: ~70% /v1/contract over
/// fixed addresses spread across the population (some misses), 10%
/// /v1/codehash of the biggest clone family, 10% /v1/vulns for function
/// collisions, the rest /v1/status, /healthz and /metrics. With
/// `exact_counts` the family and vulnerability counts are checked too
/// (only valid while the snapshot does not change).
std::vector<ReadRequest> build_mix(const serve::Snapshot& snap,
                                   std::uint64_t seed, bool exact_counts) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<ReadRequest> contracts;
  constexpr std::size_t kAddresses = 64;
  for (std::size_t j = 0; j < kAddresses && !snap.rows.empty(); ++j) {
    const std::size_t stride = std::max<std::size_t>(1, snap.rows.size() / kAddresses);
    const std::size_t idx = (j * stride + rng() % stride) % snap.rows.size();
    const std::string a = snap.rows[idx].address.to_hex();
    contracts.push_back({"/v1/contract/" + a, 200, "\"address\":\"" + a + "\""});
  }
  for (int j = 0; j < 4; ++j) {
    const std::string a =
        evm::Address::from_label("perfbench-miss-" + std::to_string(seed) + "-" +
                                 std::to_string(j))
            .to_hex();
    contracts.push_back({"/v1/contract/" + a, 404, "not_found"});
  }
  const crypto::Hash256* family = nullptr;
  std::size_t family_n = 0;
  for (const auto& [hash, members] : snap.by_code_hash) {
    if (members.size() > family_n || (members.size() == family_n && family != nullptr &&
                                      hash < *family)) {
      family_n = members.size();
      family = &hash;
    }
  }
  const std::size_t vulns =
      snap.by_vuln[static_cast<std::size_t>(serve::VulnClass::kFunctionCollision)]
          .size();
  const ReadRequest codehash{
      "/v1/codehash/" + (family != nullptr ? hex_of(*family) : std::string("0x0")),
      200, exact_counts ? "\"count\":" + std::to_string(family_n) + "," : ""};
  const ReadRequest vuln{"/v1/vulns?class=function_collision", 200,
                         exact_counts ? "\"count\":" + std::to_string(vulns) + ","
                                      : ""};
  std::vector<ReadRequest> mix;
  constexpr std::size_t kMixLength = 1000;
  for (std::size_t i = 0; i < kMixLength; ++i) {
    const std::uint64_t r = rng() % 100;
    if (r < 70) {
      mix.push_back(contracts[rng() % contracts.size()]);
    } else if (r < 80) {
      mix.push_back(codehash);
    } else if (r < 90) {
      mix.push_back(vuln);
    } else if (r < 94) {
      mix.push_back({"/v1/status", 200, "\"snapshot_head\":"});
    } else if (r < 98) {
      mix.push_back({"/healthz", 200, ""});
    } else {
      mix.push_back({"/metrics", 200, "# TYPE"});
    }
  }
  return mix;
}

/// Rows of a cold durable sweep of `inputs` on the current chain.
std::vector<core::VerdictRow> cold_rows(datagen::Population& pop,
                                        const std::vector<core::SweepInput>& inputs,
                                        const std::string& journal) {
  remove_journal(util::Vfs::real(), journal);
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  std::vector<core::VerdictRow> rows;
  store::DurableSweepConfig sc;
  sc.journal_path = journal;
  sc.record_sink = [&rows](std::span<const store::ContractRecord> recs) {
    for (const store::ContractRecord& r : recs) {
      rows.push_back(core::extract_verdict(r.analysis, r.code_hash));
    }
  };
  store::DurableSweep sweep(pipeline, *pop.chain, &pop.sources, sc);
  sweep.run(inputs);
  remove_journal(util::Vfs::real(), journal);
  return rows;
}

/// The followed snapshot must equal a cold sweep of the final chain.
void check_followed_vs_cold(ServiceStack& st, RunResult& out) {
  out.checks.push_back("followed_equals_cold");
  const auto snap = st.query.snapshot();
  const std::vector<core::VerdictRow> cold =
      cold_rows(*st.pop, st.follower->inputs(), st.journal + ".cold");
  std::unordered_map<evm::Address, const core::VerdictRow*, evm::AddressHasher>
      by_addr;
  for (const core::VerdictRow& r : snap->rows) by_addr[r.address] = &r;
  std::uint64_t diffs = snap->rows.size() != cold.size() ? 1 : 0;
  for (const core::VerdictRow& r : cold) {
    const auto it = by_addr.find(r.address);
    if (it == by_addr.end() || !(*it->second == r)) ++diffs;
  }
  if (snap->head_block != st.pop->chain->height()) ++diffs;
  if (diffs > 0) {
    out.failures.push_back("followed snapshot differs from a cold sweep of the "
                           "final chain in " +
                           std::to_string(diffs) + " rows");
  }
}

void add_read_detail(const LoadReport& r, RunResult& out) {
  out.detail.set("read_ms_p50", median(r.latency_ms), "ms");
  out.detail.set("read_ms_p90", percentile(r.latency_ms, 0.9), "ms");
  out.detail.set("read_ms_p99", percentile(r.latency_ms, 0.99), "ms");
  out.detail.set("read_samples", static_cast<double>(r.latency_ms.size()),
                 "count");
  out.detail.set("gen_late_ms_p99", percentile(r.late_ms, 0.99), "ms");
  out.detail.set("read_rps_offered", r.rate, "1/s");
  out.detail.set("read_rps_achieved", r.achieved_rps(), "1/s");
}

// ---- follow_mixed -------------------------------------------------------------

RunResult run_follow(const RunOptions& opt) {
  RunResult out;
  SetupTimes setup;
  // A traced run first drives poll() from this thread, to time laps and
  // fast-forwards, then starts the follower's own thread like an untraced
  // run (the service path).
  std::unique_ptr<ServiceStack> st =
      setup_stack(opt, /*background=*/!opt.trace, &setup);
  datagen::Population& pop = *st->pop;
  serve::ChainFollower& follower = *st->follower;
  const std::vector<store::ContractRecord> seed_records =
      journal_records(st->journal);
  const std::size_t seed_frames = seed_records.size();
  check_ground_truth(pop, seed_records, "seed sweep", out);

  // Upgrade material, as in landscape_survey --follow.
  std::vector<evm::Address> proxies, logic_pool;
  for (const auto& c : pop.contracts) {
    if (c.archetype == datagen::Archetype::kEip1967Proxy) {
      proxies.push_back(c.address);
    } else if (c.archetype == datagen::Archetype::kToken) {
      logic_pool.push_back(c.address);
    }
  }
  if (proxies.empty() || logic_pool.empty()) {
    out.failures.push_back("population too small for the follow workload");
    return out;
  }

  const std::vector<ReadRequest> mix =
      build_mix(*st->query.snapshot(), opt.seed, /*exact_counts=*/false);
  // All HTTP clients share the server's CPU, leaving the others to the
  // follower and its pipeline; the reader thread inherits the placement.
  pin_thread_to_cpu(server_cpu());
  std::atomic<bool> stop_reader{false};
  LoadReport reads;
  OpenLoopConfig reader_config;
  reader_config.rate = kFollowReaderRps;
  reader_config.threads = 1;
  reader_config.stop = &stop_reader;
  reader_config.pin = false;
  const std::uint16_t port = st->server.port();
  // The service's CPU time over the loop: the process's minus this
  // thread's (mining and visibility polls) and the reader's.
  const double cpu0 = process_cpu_s();
  const double bench_cpu0 = thread_cpu_s();
  std::thread reader([&] { reads = run_open_loop(port, mix, reader_config); });
  // A traced run's laps execute on this thread: give it every CPU back.
  if (!st->background) unpin_thread();
  // Stops and joins the reader on every exit from this scope.
  struct ReaderStop {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~ReaderStop() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } reader_stop{stop_reader, reader};

  const evm::Address deployer = evm::Address::from_label("follow-deployer");
  const evm::U256 impl_slot = datagen::ContractFactory::eip1967_slot();
  std::size_t next_proxy = 0, next_logic = 0;
  std::uint64_t salt = 0x10000 + opt.seed % 0x10000;
  auto pick_logic = [&](const evm::Address& proxy) {
    evm::Address impl = logic_pool[next_logic++ % logic_pool.size()];
    if (impl.to_word() == pop.chain->get_storage(proxy, impl_slot)) {
      impl = logic_pool[next_logic++ % logic_pool.size()];
    }
    return impl;
  };

  std::vector<double> visible_ms, visible_traced, visible_untraced;
  std::vector<double> visible_by_kind[4];
  // Traced runs only. Driven phase: poll() timed on this thread. Service
  // phase, per lap block: the follower's own lap timer, the decorators'
  // counts and the block's visibility, all over the same blocks.
  std::vector<double> mine_us, lap_ms, ff_ms, lap_cpu;
  std::vector<double> bg_lap_ms, bg_visible_ms, lap_read_bytes,
      lap_write_bytes, lap_fsyncs, lap_fsync_ms, lap_keccaks, lap_code,
      lap_batches, lap_queries, lap_busy;
  const double cpus = static_cast<double>(online_cpus());
  std::uint64_t blocks = 0, visible_attempts = 0, invisible = 0;
  const std::uint64_t laps_start = follower.stats().laps.load();
  const double driven_s = opt.trace ? opt.seconds / 3 : 0.0;
  const std::uint64_t loop_t0 = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - loop_t0) / 1e9;
  };
  for (std::uint64_t i = 0;
       (elapsed_s() < opt.seconds || visible_ms.size() < kMinVisibleBlocks) &&
       elapsed_s() < 3 * opt.seconds + 30;
       ++i) {
    if (!st->background && i % 4 == 0 && elapsed_s() >= driven_s) {
      // Traced run: on to the service path. The follower's thread inherits
      // this thread's placement, so it starts before this thread is pinned.
      follower.start();
      st->background = true;
      if (!follower.wait_synced(pop.chain->height())) {
        out.failures.push_back("follower failed to sync after start");
        break;
      }
      pin_thread_to_cpu(server_cpu());
    }
    // Traced runs alternate traced and untraced 4-block cycles.
    const bool trace_this = opt.trace && (i / 4) % 2 == 0;
    set_tracing(trace_this);
    evm::Address target;
    std::optional<evm::Address> impl;
    bool empty = false;
    switch (i % 4) {
      case 0:  // plain deployment
        target = pop.chain->deploy_runtime(
            deployer, datagen::ContractFactory::token_contract(salt++));
        break;
      case 1:  // upgrade: implementation-slot write on a known proxy
        target = proxies[next_proxy++ % proxies.size()];
        impl = pick_logic(target);
        pop.chain->set_storage(target, impl_slot, impl->to_word());
        break;
      case 2:  // empty block
        empty = true;
        break;
      default:  // deployment plus same-block upgrade of the new proxy
        target = pop.chain->deploy_runtime(
            deployer, datagen::ContractFactory::eip1967_proxy());
        impl = logic_pool[next_logic++ % logic_pool.size()];
        pop.chain->set_storage(target, impl_slot, impl->to_word());
        break;
    }
    // The follower is parked (the previous block was fenced), so these
    // counts cover this block's work only.
    if (st->vfs) st->vfs->reset();
    if (st->counting) st->counting->reset();
    const std::uint64_t laps0 = follower.stats().laps.load();
    const std::uint64_t k0 = keccak_counter();
    const std::uint64_t t_mine = now_ns();
    {
      Span span("chain", "Blockchain::mine_block");
      pop.chain->mine_block();
    }
    mine_us.push_back(static_cast<double>(now_ns() - t_mine) / 1e3);
    if (!st->background) {
      // Driven: this thread runs the follower's poll itself.
      const double cpu0 = process_cpu_s();
      const std::uint64_t t0 = now_ns();
      {
        Span span("serve", "ChainFollower::poll");
        follower.poll();
      }
      const double ms = static_cast<double>(now_ns() - t0) / 1e6;
      if (follower.stats().laps.load() > laps0) {
        lap_ms.push_back(ms);
        lap_cpu.push_back((process_cpu_s() - cpu0) * 1e3 / (ms * cpus));
      } else {
        ff_ms.push_back(ms);
      }
    }
    double visible = -1;
    if (!empty) {
      ++visible_attempts;
      // Block appended -> verdict visible over loopback HTTP.
      const std::string path = "/v1/contract/" + target.to_hex();
      const std::string want =
          impl ? "\"logic_address\":\"" + impl->to_hex() + "\"" : std::string();
      std::uint64_t next = t_mine;
      for (;;) {
        const HttpReply r = http_get(port, path);
        const std::uint64_t now = now_ns();
        if (r.status == 200 &&
            (want.empty() || r.body.find(want) != std::string::npos)) {
          visible = static_cast<double>(now - t_mine) / 1e6;
          break;
        }
        if (static_cast<double>(now - t_mine) / 1e6 > kVisibleDeadlineMs) break;
        next += kVisiblePollNs;
        if (next > now) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
        } else {
          next = now;
        }
      }
      if (visible < 0) ++invisible;
    }
    if (st->background) {
      // The chain is single-writer: fence the next mutation.
      if (!follower.wait_synced(pop.chain->height(), 60'000)) {
        out.failures.push_back("follower failed to sync: " +
                               follower.last_error());
        break;
      }
      if (visible >= 0) {
        visible_ms.push_back(visible);
        visible_by_kind[i % 4].push_back(visible);
        if (opt.trace) {
          (trace_this ? visible_traced : visible_untraced).push_back(visible);
        }
      }
      if (opt.trace && visible >= 0 &&
          follower.stats().laps.load() == laps0 + 1) {
        const double lap =
            static_cast<double>(follower.stats().last_lap_us.load()) / 1e3;
        bg_lap_ms.push_back(lap);
        bg_visible_ms.push_back(visible);
        lap_keccaks.push_back(static_cast<double>(keccak_counter() - k0));
        const VfsCounts v = st->vfs->counts();
        lap_read_bytes.push_back(static_cast<double>(v.read_bytes));
        lap_write_bytes.push_back(static_cast<double>(v.write_bytes));
        lap_fsyncs.push_back(static_cast<double>(v.fsyncs));
        lap_fsync_ms.push_back(static_cast<double>(v.fsync_ns) / 1e6);
        const ArchiveCounts a = st->counting->counts();
        lap_code.push_back(static_cast<double>(a.code_fetches));
        lap_batches.push_back(
            static_cast<double>(a.storage_batches + a.storage_calls));
        lap_queries.push_back(static_cast<double>(a.storage_queries));
        lap_busy.push_back(static_cast<double>(a.busy_ns) / 1e6 /
                           (lap * cpus));
      }
    }
    ++blocks;
  }
  set_tracing(false);
  const double loop_s = elapsed_s();
  stop_reader.store(true);
  reader.join();
  const double service_cpu_s = process_cpu_s() - cpu0 -
                               (thread_cpu_s() - bench_cpu0) - reads.client_cpu_s;
  unpin_thread();

  if (st->background) follower.stop();
  check_followed_vs_cold(*st, out);
  out.checks.push_back("read_bodies");
  if (reads.wrong > 0) {
    out.failures.push_back(std::to_string(reads.wrong) +
                           " background reads returned unexpected bodies");
  }
  out.attempted = visible_attempts + reads.attempted;
  out.failed = invisible + reads.failed;

  const double blocks_per_s = static_cast<double>(blocks) / loop_s;
  out.detail.set("visible_ms_p50", median(visible_ms), "ms");
  out.detail.set("visible_ms_p90", percentile(visible_ms, 0.9), "ms");
  out.detail.set("visible_samples", static_cast<double>(visible_ms.size()),
                 "count");
  out.detail.set("visible_ms_p50_deploy", median(visible_by_kind[0]), "ms");
  out.detail.set("visible_ms_p50_upgrade", median(visible_by_kind[1]), "ms");
  out.detail.set("visible_ms_p50_deploy_upgrade", median(visible_by_kind[3]),
                 "ms");
  out.detail.set("follow_blocks_per_s", blocks_per_s, "1/s");
  out.detail.set("blocks", static_cast<double>(blocks), "count");
  add_read_detail(reads, out);
  out.detail.set("setup_wall_s", setup.wall_s, "s");
  out.detail.set("peak_rss_mb", peak_rss_mb(), "MiB");

  if (!opt.trace) {
    // Traced runs poll() from this thread, so this figure is untraced only.
    const double cpu_ms_per_block =
        service_cpu_s * 1e3 / static_cast<double>(std::max<std::uint64_t>(blocks, 1));
    out.detail.set("service_cpu_ms_per_block", cpu_ms_per_block, "ms");
    out.metrics.set("setup_s", setup.setup_s, "s");
    out.metrics.set("cpu_ms_per_op", cpu_ms_per_block, "ms");
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  MetricSet m = fresh_layer_metrics();
  set_layer(m, "datagen.population_s", setup.gen_s);
  set_layer(m, "chain.mine_block_us", median(mine_us));
  set_layer(m, "serve.lap_ms_p50", median(lap_ms));
  set_layer(m, "serve.fast_forward_ms_p50", median(ff_ms));
  set_layer(m, "util.pool_cpu_share", median(lap_cpu));
  set_layer(m, "crypto.keccak_calls", median(lap_keccaks));
  set_layer(m, "chain.code_fetches", median(lap_code));
  set_layer(m, "chain.storage_batches", median(lap_batches));
  set_layer(m, "chain.storage_queries", median(lap_queries));
  set_layer(m, "chain.busy_share", median(lap_busy));
  set_layer(m, "store.read_bytes_per_lap", median(lap_read_bytes));
  set_layer(m, "store.write_bytes", median(lap_write_bytes));
  set_layer(m, "store.fsyncs", median(lap_fsyncs));
  set_layer(m, "store.fsync_ms", median(lap_fsync_ms));
  set_layer(m, "bench.gen_late_ms_p99", percentile(reads.late_ms, 0.99));
  // Interpreter work of the laps: records the laps journaled, counted once
  // per analyzed blob.
  const std::vector<store::ContractRecord> all = journal_records(st->journal);
  std::uint64_t steps = 0;
  for (std::size_t k = seed_frames; k < all.size(); ++k) {
    if (!all[k].analysis.deduplicated) steps += all[k].analysis.proxy.emulation_steps;
  }
  const std::uint64_t laps = follower.stats().laps.load() - laps_start;
  set_layer(m, "evm.interp_steps",
            laps == 0 ? 0.0
                      : static_cast<double>(steps) / static_cast<double>(laps));
  const double ovh = overhead_pct(visible_traced, visible_untraced);
  set_layer(m, "bench.trace_overhead_pct", ovh);
  // The split is checked on the service path: the follower's own lap timer
  // against visibility over HTTP, over the same blocks.
  const double lap_share = median(bg_lap_ms) / median(bg_visible_ms);
  char split[200];
  std::snprintf(split, sizeof split,
                "service path: follower lap p50 %.3f ms, block->visible p50 "
                "%.3f ms over %zu lap blocks; driven poll() lap p50 %.3f ms",
                median(bg_lap_ms), median(bg_visible_ms), bg_lap_ms.size(),
                median(lap_ms));
  out.report.push_back(split);
  predict(out,
          "the follower's lap (store replay + recompute) is the bulk of "
          "visible_ms_p50 on the service path",
          lap_share, lap_share >= 0.5);
  set_tracing(true);
  layer_probes(pop, seed_records, st->journal, st->pipeline->registry(), port, m);
  set_tracing(false);
  out.metrics = std::move(m);
  report_trace(opt, ovh, out);
  return out;
}

// ---- serve_reads --------------------------------------------------------------

RunResult run_reads(const RunOptions& opt) {
  RunResult out;
  SetupTimes setup;
  std::unique_ptr<ServiceStack> st =
      setup_stack(opt, /*background=*/true, &setup);
  datagen::Population& pop = *st->pop;
  const std::vector<store::ContractRecord> seed_records =
      journal_records(st->journal);
  check_ground_truth(pop, seed_records, "seed sweep", out);
  const std::vector<ReadRequest> mix =
      build_mix(*st->query.snapshot(), opt.seed, /*exact_counts=*/true);
  const std::uint16_t port = st->server.port();
  const unsigned gen_threads = generator_threads();

  // Work the pipeline and store would show if reads caused any.
  if (st->vfs) st->vfs->reset();
  if (st->counting) st->counting->reset();
  const std::uint64_t k0 = keccak_counter();
  const std::uint64_t laps0 = st->follower->stats().laps.load();
  std::error_code ec;
  const std::uintmax_t journal_bytes0 = std::filesystem::file_size(st->journal, ec);

  // 1. The nominal rate, open loop. Traced runs split it into a traced
  //    and an untraced half for the overhead.
  const double nominal_s = 0.5 * opt.seconds;
  OpenLoopConfig nominal;
  nominal.rate = kNominalReadRps;
  nominal.threads = gen_threads;
  nominal.seconds = opt.trace ? nominal_s / 2 : nominal_s;
  set_tracing(opt.trace);
  LoadReport nom = run_open_loop(port, mix, nominal);
  set_tracing(false);
  LoadReport nom_untraced;
  if (opt.trace) {
    nominal.mix_offset = nom.attempted;
    nom_untraced = run_open_loop(port, mix, nominal);
  }
  // 2. The single-thread baseline: one closed-loop client over the mix.
  //    The server's CPU time is the process's minus the client's.
  set_tracing(opt.trace);
  const double closed_cpu0 = process_cpu_s();
  const LoadReport closed = run_closed_loop(port, mix, 0.2 * opt.seconds);
  const double server_cpu_s =
      process_cpu_s() - closed_cpu0 - closed.client_cpu_s;
  // 3. The rate ladder: the highest offered rate that holds p99 within the
  //    limit, with no failure and no growing backlog. A rate at which the
  //    generator itself ran later than the limit is not met, whatever the
  //    server did: its latencies would not measure the server.
  const double step_s = std::max(0.25, 0.3 * opt.seconds / std::size(kLadderRps));
  double max_rps = 0;
  bool ladder_holds = true;
  std::string ladder_line = "ladder (rps: p99 ms, late p99 ms):";
  std::uint64_t ladder_wrong = 0;
  for (const double rate : kLadderRps) {
    OpenLoopConfig step;
    step.rate = rate;
    step.threads = gen_threads;
    step.seconds = step_s;
    const LoadReport r = run_open_loop(port, mix, step);
    ladder_wrong += r.wrong;
    const double p99 = percentile(r.latency_ms, 0.99);
    const double late = percentile(r.late_ms, 0.99);
    char buf[96];
    std::snprintf(buf, sizeof buf, " %.0f: %.3f, %.3f;", rate, p99, late);
    ladder_line += buf;
    const bool met = r.failed == 0 && p99 <= kReadLimitMs && late <= kReadLimitMs &&
                     r.achieved_rps() >= 0.95 * rate;
    // Every step runs, so a run measures for its full length; the maximum
    // is the top of the unbroken run of met rates from the bottom.
    ladder_holds = ladder_holds && met;
    if (ladder_holds) max_rps = rate;
  }
  set_tracing(false);
  out.report.push_back(ladder_line);

  const std::uint64_t keccaks = keccak_counter() - k0;
  const std::uint64_t laps = st->follower->stats().laps.load() - laps0;
  const std::uintmax_t journal_bytes1 = std::filesystem::file_size(st->journal, ec);
  out.checks.push_back("reads_do_no_work");
  if (laps != 0 || journal_bytes1 != journal_bytes0) {
    out.failures.push_back("serve_reads ran pipeline or store work (" +
                           std::to_string(laps) + " laps)");
  }
  const std::uint64_t wrong =
      nom.wrong + nom_untraced.wrong + closed.wrong + ladder_wrong;
  out.checks.push_back("read_bodies");
  if (wrong > 0) {
    out.failures.push_back(std::to_string(wrong) +
                           " reads returned unexpected bodies");
  }
  // Failed ops: refused, timed-out or unexpected-status requests at the
  // nominal rate and in the closed loop. Ladder rates above the limit are
  // expected to fail and only bound read_max_rps.
  out.attempted = nom.attempted + nom_untraced.attempted + closed.attempted;
  out.failed = nom.failed + nom_untraced.failed + closed.failed;

  const LoadReport& lat = opt.trace ? nom_untraced : nom;
  add_read_detail(lat, out);
  out.detail.set("read_max_rps", max_rps, "1/s");
  out.detail.set("single_thread_rps", closed.achieved_rps(), "1/s");
  out.detail.set("single_thread_read_ms_p50", median(closed.latency_ms), "ms");
  out.detail.set("single_thread_read_ms_p90", percentile(closed.latency_ms, 0.9),
                 "ms");
  out.detail.set("single_thread_samples",
                 static_cast<double>(closed.latency_ms.size()), "count");
  const double server_cpu_ms_per_request =
      server_cpu_s * 1e3 /
      static_cast<double>(std::max<std::uint64_t>(closed.attempted, 1));
  out.detail.set("server_cpu_ms_per_request", server_cpu_ms_per_request, "ms");
  out.detail.set("generator_threads", gen_threads, "count");
  out.detail.set("nominal_rate_valid",
                 percentile(lat.late_ms, 0.99) <= kReadLimitMs ? 1.0 : 0.0,
                 "bool");
  out.detail.set("setup_wall_s", setup.wall_s, "s");
  out.detail.set("peak_rss_mb", peak_rss_mb(), "MiB");

  if (!opt.trace) {
    out.metrics.set("setup_s", setup.setup_s, "s");
    out.metrics.set("cpu_ms_per_op", server_cpu_ms_per_request, "ms");
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  MetricSet m = fresh_layer_metrics();
  set_layer(m, "datagen.population_s", setup.gen_s);
  set_layer(m, "crypto.keccak_calls", static_cast<double>(keccaks));
  const ArchiveCounts a = st->counting->counts();
  set_layer(m, "chain.code_fetches", static_cast<double>(a.code_fetches));
  set_layer(m, "chain.storage_batches",
            static_cast<double>(a.storage_batches + a.storage_calls));
  set_layer(m, "chain.storage_queries", static_cast<double>(a.storage_queries));
  const VfsCounts v = st->vfs->counts();
  set_layer(m, "store.write_bytes", static_cast<double>(v.write_bytes));
  set_layer(m, "store.fsyncs", static_cast<double>(v.fsyncs));
  set_layer(m, "store.fsync_ms", static_cast<double>(v.fsync_ns) / 1e6);
  set_layer(m, "bench.gen_late_ms_p99", percentile(nom.late_ms, 0.99));
  const double ovh = overhead_pct(nom.latency_ms, nom_untraced.latency_ms);
  set_layer(m, "bench.trace_overhead_pct", ovh);
  const double work = static_cast<double>(keccaks + a.code_fetches +
                                          a.storage_queries + v.write_bytes +
                                          v.fsyncs + laps);
  predict(out, "no pipeline or store work during serve_reads", work, work == 0);
  set_tracing(true);
  layer_probes(pop, seed_records, st->journal, st->pipeline->registry(), port, m);
  set_tracing(false);
  out.metrics = std::move(m);
  report_trace(opt, ovh, out);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"sweep_cold", "sweep_remote",
                                                  "follow_mixed", "serve_reads"};
  return kNames;
}

RunResult run_workload(const RunOptions& options) {
  if (options.workload == "sweep_cold") return run_sweeps(options, false);
  if (options.workload == "sweep_remote") return run_sweeps(options, true);
  if (options.workload == "follow_mixed") return run_follow(options);
  if (options.workload == "serve_reads") return run_reads(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
