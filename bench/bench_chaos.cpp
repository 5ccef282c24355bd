// Chaos-recovery bench: what a power cut costs. Runs the durable sweep
// through the fault-injecting model filesystem, fault-free first (boundary
// census + baseline), then cuts power at a sample of mutating-op boundaries
// and measures heal + reboot + resume time (a fresh instance's booting
// incremental() call) — asserting every resumed sweep
// is verdict-identical to the fault-free run and never recomputes committed
// work. Headline numbers are merged into BENCH_results.json (the chaos CI
// job gates on them).
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_results.h"
#include "core/pipeline.h"
#include "store/durable_sweep.h"
#include "store/journal.h"
#include "store/records.h"
#include "util/vfs_fault.h"

namespace {

using namespace proxion;
using namespace proxion::bench;

constexpr char kJournal[] = "chaos/bench.journal";
/// Small enough for the more than 20 power-cut boundaries that
/// tools/chaos_smoke.sh requires: a shard adds two (its write and its
/// journal fsync), and the journal's creation four.
constexpr std::size_t kShardSize = 200;

double time_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
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

/// Contracts the journal holds as committed: the counts of the kShardCommit
/// frames in its valid prefix, which is what a boot replays.
std::uint64_t committed_contracts(util::Vfs& vfs) {
  std::uint64_t out = 0;
  const auto replay = store::read_journal(kJournal, vfs);
  if (!replay) return out;
  for (const store::JournalFrame& frame : replay->frames) {
    if (frame.type != store::RecordType::kShardCommit) continue;
    if (auto commit = store::decode_shard_commit(frame.payload)) {
      out += commit->contracts;
    }
  }
  return out;
}

store::DurableSweepConfig sweep_config(util::Vfs& vfs) {
  store::DurableSweepConfig sc;
  sc.journal_path = kJournal;
  sc.shard_size = kShardSize;
  sc.vfs = &vfs;
  return sc;
}

}  // namespace

int main() {
  BenchResults results("bench_chaos");
  auto& pop = population();
  const auto inputs = pop.sweep_inputs();
  core::PipelineConfig config;
  std::printf("chaos-recovery bench over %zu contracts (shard size %zu)\n",
              inputs.size(), kShardSize);

  // ---- fault-free reference: baseline timing + the boundary census -------
  util::FaultInjectingVfs ref_vfs;
  core::AnalysisPipeline ref_pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweep ref_sweep(ref_pipeline, *pop.chain, &pop.sources,
                                sweep_config(ref_vfs));
  store::DurableSweepResult ref;
  const double faultfree_ms = time_ms([&] { ref = ref_sweep.run(inputs); });
  if (!ref.error.empty() || !ref.complete) {
    std::fprintf(stderr, "fault-free sweep failed: %s\n", ref.error.c_str());
    return 1;
  }
  const std::uint64_t boundaries = ref_vfs.mutating_ops();
  const double journal_mb =
      static_cast<double>(ref_vfs.peek(kJournal)->size()) / 1e6;

  heading("fault-free durable sweep (model filesystem)");
  row("wall time", fmt(faultfree_ms, " ms"));
  row("journal size", fmt(journal_mb, " MB"));
  row("power-cut boundaries (mutating ops)",
      std::to_string(boundaries));
  results.set("chaos_faultfree_ms", faultfree_ms);
  results.set("chaos_journal_mb", journal_mb);
  results.set("chaos_boundaries", static_cast<double>(boundaries));

  // ---- power-cut sample: cut, reboot, resume, verify ----------------------
  const std::size_t samples = boundaries < 8 ? boundaries : 8;
  double sum_cut_ms = 0, sum_resume_ms = 0;
  std::uint64_t sum_replayed = 0, sum_recomputed = 0;
  bool all_identical = true;
  bool committed_recomputed = false;
  for (std::size_t s = 0; s < samples; ++s) {
    const std::uint64_t b = boundaries * s / samples;
    util::FaultVfsConfig cfg;
    cfg.power_cut_at = static_cast<std::int64_t>(b);
    util::FaultInjectingVfs vfs(cfg);
    core::AnalysisPipeline p(*pop.chain, &pop.sources, config);
    store::DurableSweep doomed(p, *pop.chain, &pop.sources, sweep_config(vfs));
    sum_cut_ms += time_ms([&] {
      try {
        (void)doomed.run(inputs);
      } catch (const util::PowerCutException&) {
      }
    });
    vfs.heal();
    vfs.reboot();
    const std::uint64_t committed = committed_contracts(vfs);

    core::AnalysisPipeline p2(*pop.chain, &pop.sources, config);
    store::DurableSweep healer(p2, *pop.chain, &pop.sources, sweep_config(vfs));
    store::DurableSweepResult res;
    sum_resume_ms += time_ms([&] { res = healer.incremental(inputs, {}); });
    all_identical = all_identical && res.error.empty() && res.complete &&
                    same_verdicts(res.stats, ref.stats);
    committed_recomputed = committed_recomputed || res.replayed < committed;
    sum_replayed += res.replayed;
    sum_recomputed += res.recomputed;
  }
  const double n = static_cast<double>(samples);

  heading("power cut at sampled boundaries + reboot + resume");
  row("boundaries sampled", std::to_string(samples));
  row("cut run (mean)", fmt(sum_cut_ms / n, " ms"));
  row("resume to completion (mean)", fmt(sum_resume_ms / n, " ms"));
  row("replayed per resume (mean)",
      fmt(static_cast<double>(sum_replayed) / n));
  row("recomputed per resume (mean)",
      fmt(static_cast<double>(sum_recomputed) / n));
  row("all resumes verdict-identical", all_identical ? "yes" : "NO");
  row("committed work recomputed", committed_recomputed ? "SOME" : "none");
  results.set("chaos_cut_ms_mean", sum_cut_ms / n);
  results.set("chaos_resume_ms_mean", sum_resume_ms / n);
  results.set("chaos_sweeps_identical", all_identical ? 1.0 : 0.0);
  results.set("chaos_zero_recompute",
              committed_recomputed ? 0.0 : 1.0);

  results.write();
  return all_identical && !committed_recomputed ? 0 : 1;
}
