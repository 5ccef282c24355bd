// Fault-tolerance bench: what resilience costs when nothing is wrong, and
// what recovery costs when things are. Sections:
//   1. resilience overhead at 0% faults — the retry/breaker wrapper plus the
//      IArchiveNode virtual seam vs the raw in-process backend (target <2%);
//   2. recovery at 5/10/20% injected fault rates — wall time, retries, and
//      the bit-identity check (a faulty sweep with retries must produce
//      exactly the fault-free reports, with nothing quarantined);
//   3. outage + restart — a durable sweep with the retry budget exhausted on
//      purpose, then a restarted sweep booting from its journal after the
//      backend "recovers".
// All headline numbers are merged into BENCH_results.json.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "bench_results.h"
#include "chain/archive_node.h"
#include "chain/fault_injection.h"
#include "core/pipeline.h"
#include "store/durable_sweep.h"
#include "store/journal.h"
#include "store/records.h"

namespace {

using namespace proxion;
using namespace proxion::bench;
using chain::FaultInjectingArchiveNode;
using chain::FaultProfile;

double time_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Best-of-N wall time for one full sweep under `config`; returns the last
/// run's reports through `out` so callers can compare results.
double best_sweep_ms(datagen::Population& pop, core::PipelineConfig config,
                     std::vector<core::ContractAnalysis>* out, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    // A fresh pipeline per rep, so every rep also starts its pool cold.
    core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
    std::vector<core::ContractAnalysis> reports;
    const double ms =
        time_ms([&] { reports = pipeline.run(pop.sweep_inputs()); });
    if (ms < best) best = ms;
    if (out != nullptr && r == reps - 1) *out = std::move(reports);
  }
  return best;
}

util::RetryPolicy bench_retry() {
  util::RetryPolicy p;
  p.base_delay_us = 1;  // keep the bench about work, not sleeping
  p.max_delay_us = 50;
  return p;
}

bool identical(const std::vector<core::ContractAnalysis>& a,
               const std::vector<core::ContractAnalysis>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

/// The last journaled report per input, in input order (a report missing
/// from the journal stays default-constructed and fails the comparison).
std::vector<core::ContractAnalysis> journaled(
    const std::string& path, const std::vector<core::SweepInput>& inputs) {
  std::unordered_map<evm::Address, core::ContractAnalysis, evm::AddressHasher>
      last;
  if (const auto replay = store::read_journal(path)) {
    for (const store::JournalFrame& frame : replay->frames) {
      if (frame.type != store::RecordType::kContract) continue;
      if (auto rec = store::decode_contract_record(frame.payload)) {
        last.insert_or_assign(rec->analysis.address, std::move(rec->analysis));
      }
    }
  }
  std::vector<core::ContractAnalysis> out;
  out.reserve(inputs.size());
  for (const core::SweepInput& input : inputs) {
    out.push_back(last[input.address]);
  }
  return out;
}

}  // namespace

int main() {
  BenchResults results("bench_fault_sweep");
  auto& pop = population();
  const auto inputs = pop.sweep_inputs();
  std::printf("fault-tolerance bench over %zu contracts\n", inputs.size());

  // ---- 1. resilience overhead at 0% faults ------------------------------
  std::vector<core::ContractAnalysis> raw_reports, guarded_reports;
  core::PipelineConfig raw_config;
  raw_config.enable_retries = false;
  const double raw_ms = best_sweep_ms(pop, raw_config, &raw_reports);

  core::PipelineConfig guarded_config;
  guarded_config.retry = bench_retry();
  const double guarded_ms = best_sweep_ms(pop, guarded_config,
                                          &guarded_reports);
  const double overhead_pct = (guarded_ms - raw_ms) / raw_ms * 100.0;

  heading("resilience overhead at 0% faults (best of 3)");
  row("raw backend (retries off)", fmt(raw_ms, " ms"));
  row("retry + breaker wrapper", fmt(guarded_ms, " ms"));
  row("overhead", fmt(overhead_pct, " % (target < 2%)"));
  row("results bit-identical", identical(raw_reports, guarded_reports)
                                   ? "yes"
                                   : "NO");
  results.set("sweep_raw_ms", raw_ms);
  results.set("sweep_guarded_ms", guarded_ms);
  results.set("overhead_pct_at_0_faults", overhead_pct);

  // ---- 2. recovery at 5/10/20% fault rates ------------------------------
  heading("recovery under injected faults (retries absorb everything)");
  for (const double rate : {0.05, 0.10, 0.20}) {
    chain::ArchiveNode inner(*pop.chain);
    FaultProfile profile;
    profile.seed = 0xfa17'0000ull + static_cast<std::uint64_t>(rate * 100);
    profile.transient_rate = rate * 0.5;
    profile.timeout_rate = rate * 0.25;
    profile.rate_limit_rate = rate * 0.15;
    profile.stale_read_rate = rate * 0.10;
    FaultInjectingArchiveNode faulty(inner, profile);

    core::PipelineConfig config;
    config.archive_node = &faulty;
    config.retry = bench_retry();
    core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
    std::vector<core::ContractAnalysis> reports;
    const double ms = time_ms([&] { reports = pipeline.run(inputs); });
    const auto stats = pipeline.summarize(reports);

    const std::string tag = std::to_string(static_cast<int>(rate * 100));
    row(tag + "% faults: sweep", fmt(ms, " ms"));
    row(tag + "% faults: slowdown vs clean",
        fmt(ms / raw_ms, "x"));
    row(tag + "% faults: injected / retried",
        std::to_string(faulty.injected_faults()) + " / " +
            std::to_string(stats.rpc_retries));
    row(tag + "% faults: quarantined", std::to_string(stats.quarantined));
    row(tag + "% faults: bit-identical to clean",
        identical(reports, raw_reports) ? "yes" : "NO");
    results.set("sweep_ms_at_" + tag + "pct_faults", ms);
    results.set("slowdown_at_" + tag + "pct_faults", ms / raw_ms);
    results.set("retries_at_" + tag + "pct_faults",
                static_cast<double>(stats.rpc_retries));
  }

  // ---- 3. outage + restart from the journal ----------------------------
  {
    chain::ArchiveNode inner(*pop.chain);
    FaultProfile profile;
    profile.seed = 77;
    profile.transient_rate = 0.10;
    profile.failures_per_fault = 1'000'000;  // a real outage: retries lose
    FaultInjectingArchiveNode faulty(inner, profile);

    core::PipelineConfig config;
    config.archive_node = &faulty;
    config.retry = bench_retry();
    core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "proxion_bench_fault";
    std::filesystem::create_directories(dir);
    store::DurableSweepConfig sc;
    sc.journal_path = (dir / "outage.journal").string();
    store::DurableSweepResult outage;
    const double outage_ms = time_ms([&] {
      outage = store::DurableSweep(pipeline, *pop.chain, &pop.sources, sc)
                   .run(inputs);
    });

    faulty.heal();
    store::DurableSweep restarted(pipeline, *pop.chain, &pop.sources, sc);
    store::DurableSweepResult healed;
    const double resume_ms =
        time_ms([&] { healed = restarted.incremental(inputs, {}); });
    const bool converged =
        outage.error.empty() && healed.error.empty() &&
        identical(journaled(sc.journal_path, inputs), raw_reports);

    heading("outage (10% of requests dead) + restart after recovery");
    row("outage sweep (durable)", fmt(outage_ms, " ms"));
    row("quarantined by the outage", std::to_string(outage.stats.quarantined));
    row("analyzed anyway (partial coverage)",
        std::to_string(outage.stats.analyzed_contracts));
    row("restart pass (boot from journal)", fmt(resume_ms, " ms"));
    row("recomputed by the restart", std::to_string(healed.recomputed));
    row("still quarantined after restart",
        std::to_string(healed.stats.quarantined));
    row("converged to fault-free reports", converged ? "yes" : "NO");
    results.set("outage_sweep_ms", outage_ms);
    results.set("outage_quarantined",
                static_cast<double>(outage.stats.quarantined));
    results.set("resume_ms", resume_ms);
    results.set("resume_recomputed", static_cast<double>(healed.recomputed));
    results.set("resume_still_quarantined",
                static_cast<double>(healed.stats.quarantined));
  }

  results.write();
  return 0;
}
