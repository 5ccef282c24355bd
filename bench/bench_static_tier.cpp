// What the static triage tier buys: sweeps the bench population (plus the
// tier's adversarial fixtures) with the prefilter off and on, best-of-3 on
// fresh pipelines, and reports wall-clock, total emulation steps paid, the
// per-kind skip counts, the run-to-fuse proofs with the emulation steps
// they saved, and the cross-check mismatch count (must be zero).
// Verdict equality between the two sweeps is asserted, not assumed — a
// faster wrong sweep is worthless.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "bench_results.h"
#include "core/pipeline.h"
#include "datagen/contract_factory.h"

namespace {

using namespace proxion;
using namespace proxion::bench;

/// The bench population's sweep inputs plus the static-tier fixtures (dead
/// DELEGATECALL, PUSH-data decoy, computed-jump proxy, no-exit loop)
/// deployed on the same chain, so the tier's hard cases are in every
/// measured sweep.
std::vector<core::SweepInput>& augmented_inputs() {
  static std::vector<core::SweepInput> inputs = [] {
    using datagen::ContractFactory;
    auto& pop = population();
    auto all = pop.sweep_inputs();
    const evm::Address deployer =
        evm::Address::from_label("bench.static.deployer");
    const evm::Address logic = pop.chain->deploy_runtime(
        deployer, ContractFactory::token_contract(0xbe7c));
    const auto add = [&](const evm::Bytes& code) {
      const evm::Address a = pop.chain->deploy_runtime(deployer, code);
      all.push_back({.address = a, .year = 2022});
      return a;
    };
    add(ContractFactory::dead_delegatecall_contract());
    add(ContractFactory::push_data_delegatecall_contract());
    add(ContractFactory::infinite_loop_contract());
    const evm::Address cj =
        add(ContractFactory::computed_jump_contract(evm::U256{7}));
    pop.chain->set_storage(cj, evm::U256{7}, logic.to_word());
    return all;
  }();
  return inputs;
}

struct SweepSample {
  double wall_ms = 0.0;
  std::vector<core::ContractAnalysis> reports;
  core::LandscapeStats stats;
};

SweepSample sweep_once(bool tier_on) {
  auto& pop = population();
  core::PipelineConfig config;
  config.static_tier.enabled = tier_on;
  config.static_tier.cross_check = tier_on;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  SweepSample s;
  const auto t0 = std::chrono::steady_clock::now();
  s.reports = pipeline.run(augmented_inputs());
  const auto t1 = std::chrono::steady_clock::now();
  s.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  s.stats = pipeline.summarize(s.reports);
  return s;
}

/// Best-of-N over fresh pipelines: every sample pays cold caches, so the
/// off/on delta isolates the tier, not cache warmth.
SweepSample best_of(int n, bool tier_on) {
  SweepSample best = sweep_once(tier_on);
  for (int i = 1; i < n; ++i) {
    SweepSample s = sweep_once(tier_on);
    if (s.wall_ms < best.wall_ms) best = std::move(s);
  }
  return best;
}

/// Emulation steps the run-to-fuse proofs stood in for: each proved blob's
/// report carries the fuse count emulation would have run, counted once per
/// unique blob like the steps histogram.
double fuse_steps_saved(const SweepSample& s) {
  double steps = 0.0;
  for (const auto& r : s.reports) {
    if (!r.deduplicated &&
        r.proxy.static_triage == core::StaticTriage::kSkippedRunsToFuse) {
      steps += static_cast<double>(r.proxy.emulation_steps);
    }
  }
  return steps;
}

int verdict_diffs(const SweepSample& a, const SweepSample& b) {
  int diffs = 0;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const auto& x = a.reports[i].proxy;
    const auto& y = b.reports[i].proxy;
    if (x.verdict != y.verdict || x.standard != y.standard ||
        x.logic_source != y.logic_source || x.logic_slot != y.logic_slot ||
        !(x.logic_address == y.logic_address)) {
      ++diffs;
    }
  }
  return diffs;
}

/// Detection-isolated fleet: many *unique* EIP-1167 runtimes (every embedded
/// target differs, so dedup cannot collapse them — exactly the shape of real
/// clone fleets) swept with history/collision phases off, so the off/on
/// delta is the proxy-detection phase the tier actually touches.
std::vector<core::SweepInput>& fleet_inputs() {
  static std::vector<core::SweepInput> inputs = [] {
    using datagen::ContractFactory;
    auto& pop = population();
    const evm::Address deployer =
        evm::Address::from_label("bench.static.fleet");
    std::vector<core::SweepInput> all;
    for (int i = 0; i < 800; ++i) {
      const evm::Address target =
          evm::Address::from_label("fleet.logic." + std::to_string(i));
      const evm::Address a = pop.chain->deploy_runtime(
          deployer, ContractFactory::minimal_proxy(target));
      all.push_back({.address = a, .year = 2021});
    }
    return all;
  }();
  return inputs;
}

SweepSample fleet_once(bool tier_on) {
  auto& pop = population();
  core::PipelineConfig config;
  config.static_tier.enabled = tier_on;
  config.static_tier.cross_check = tier_on;
  config.detect_collisions = false;
  config.find_logic_history = false;
  core::AnalysisPipeline pipeline(*pop.chain, nullptr, config);
  SweepSample s;
  const auto t0 = std::chrono::steady_clock::now();
  s.reports = pipeline.run(fleet_inputs());
  const auto t1 = std::chrono::steady_clock::now();
  s.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  s.stats = pipeline.summarize(s.reports);
  return s;
}

SweepSample fleet_best_of(int n, bool tier_on) {
  SweepSample best = fleet_once(tier_on);
  for (int i = 1; i < n; ++i) {
    SweepSample s = fleet_once(tier_on);
    if (s.wall_ms < best.wall_ms) best = std::move(s);
  }
  return best;
}

}  // namespace

int main() {
  BenchResults results("bench_static_tier");

  const SweepSample off = best_of(3, false);
  const SweepSample on = best_of(3, true);

  if (off.reports.size() != on.reports.size()) {
    std::fprintf(stderr, "sweep sizes diverged: %zu vs %zu\n",
                 off.reports.size(), on.reports.size());
    return 1;
  }
  const int diffs = verdict_diffs(off, on);
  const auto mismatches = on.stats.static_mismatches;
  if (diffs != 0 || mismatches != 0) {
    std::fprintf(stderr,
                 "EQUIVALENCE VIOLATED: %d verdict diffs, %llu mismatches\n",
                 diffs, static_cast<unsigned long long>(mismatches));
    return 1;
  }

  // Steps the ON sweep ran: the steps histogram holds each record's step
  // count, and a run-to-fuse record's is the fuse count it did not run.
  const double fuse_saved = fuse_steps_saved(on);
  const double steps_off = off.stats.emulation_steps.sum;
  const double steps_on = on.stats.emulation_steps.sum - fuse_saved;
  const std::uint64_t skips = on.stats.static_skipped_absent +
                              on.stats.static_skipped_dead +
                              on.stats.static_skipped_minimal +
                              on.stats.static_skipped_fuse;
  const std::uint64_t triaged = skips + on.stats.static_emulated;

  heading("static triage tier: prefilter off vs on (best of 3, cold)");
  row("contracts swept", std::to_string(off.reports.size()));
  row("sweep wall-clock OFF", fmt(off.wall_ms, " ms"));
  row("sweep wall-clock ON", fmt(on.wall_ms, " ms"));
  row("emulation steps OFF", fmt(steps_off));
  row("emulation steps ON", fmt(steps_on));
  row("verdict diffs vs OFF sweep", std::to_string(diffs));
  row("cross-check mismatches", std::to_string(mismatches));

  // Per-routing-kind savings. A single blended wall_saved number is
  // misleading: blobs the tier routes to "emulate anyway" are wall-neutral
  // by construction (the cross-check even emulates skipped blobs' routing
  // decision cost), so on an emulation-bound mixed population the blended
  // number hovers near 0% and hides the skip-routed blobs' real win. Report
  // steps saved (the tier's direct effect) and wall saved (which only
  // skip-routed blobs can contribute to) separately, per routing kind.
  const auto share = [&](std::uint64_t n) {
    return pct(static_cast<double>(n), static_cast<double>(triaged));
  };
  heading("routing-kind breakdown (ON sweep)");
  row("steps saved, all kinds", pct(steps_off - steps_on, steps_off));
  row("wall saved, all kinds (parity expected: emulation-bound)",
      pct(off.wall_ms - on.wall_ms, off.wall_ms));
  row("routed: phase-1 absent (skip, saves steps+wall)",
      std::to_string(on.stats.static_skipped_absent) + "  (" +
          share(on.stats.static_skipped_absent) + " of triaged)");
  row("routed: provably dead (skip, saves steps+wall)",
      std::to_string(on.stats.static_skipped_dead) + "  (" +
          share(on.stats.static_skipped_dead) + ")");
  row("routed: EIP-1167 fast path (skip, saves steps+wall)",
      std::to_string(on.stats.static_skipped_minimal) + "  (" +
          share(on.stats.static_skipped_minimal) + ")");
  row("routed: runs to the step fuse (skip, saves steps+wall)",
      std::to_string(on.stats.static_skipped_fuse) + "  (" +
          share(on.stats.static_skipped_fuse) + ")");
  row("  emulation steps the fuse proofs saved",
      fmt(fuse_saved) + "  (" + pct(fuse_saved, steps_off) + " of OFF)");
  row("routed: emulated (wall-neutral by construction)",
      std::to_string(on.stats.static_emulated) + "  (" +
          share(on.stats.static_emulated) + ")");
  row("see fleet section below for a skip-dominated population", "");

  results.set("sweep_ms_off", off.wall_ms);
  results.set("sweep_ms_on", on.wall_ms);
  results.set("wall_saved_pct",
              off.wall_ms == 0.0
                  ? 0.0
                  : 100.0 * (off.wall_ms - on.wall_ms) / off.wall_ms);
  results.set("emulation_steps_off", steps_off);
  results.set("emulation_steps_on", steps_on);
  results.set("steps_saved_pct",
              steps_off == 0.0 ? 0.0
                               : 100.0 * (steps_off - steps_on) / steps_off);
  results.set("skipped_absent",
              static_cast<double>(on.stats.static_skipped_absent));
  results.set("skipped_dead",
              static_cast<double>(on.stats.static_skipped_dead));
  results.set("skipped_minimal",
              static_cast<double>(on.stats.static_skipped_minimal));
  results.set("skipped_fuse",
              static_cast<double>(on.stats.static_skipped_fuse));
  results.set("fuse_steps_saved", fuse_saved);
  results.set("emulated", static_cast<double>(on.stats.static_emulated));
  results.set("verdict_diffs", static_cast<double>(diffs));
  results.set("cross_check_mismatches", static_cast<double>(mismatches));
  const double triaged_d = std::max(static_cast<double>(triaged), 1.0);
  results.set("routed_absent_pct",
              100.0 * static_cast<double>(on.stats.static_skipped_absent) /
                  triaged_d);
  results.set("routed_dead_pct",
              100.0 * static_cast<double>(on.stats.static_skipped_dead) /
                  triaged_d);
  results.set("routed_minimal_pct",
              100.0 * static_cast<double>(on.stats.static_skipped_minimal) /
                  triaged_d);
  results.set("routed_fuse_pct",
              100.0 * static_cast<double>(on.stats.static_skipped_fuse) /
                  triaged_d);
  results.set("routed_emulated_pct",
              100.0 * static_cast<double>(on.stats.static_emulated) /
                  triaged_d);

  // ---- detection-isolated fleet -----------------------------------------
  const SweepSample foff = fleet_best_of(3, false);
  const SweepSample fon = fleet_best_of(3, true);
  const int fleet_diffs = verdict_diffs(foff, fon);
  if (fleet_diffs != 0 || fon.stats.static_mismatches != 0) {
    std::fprintf(stderr, "FLEET EQUIVALENCE VIOLATED: %d diffs, %llu mismatches\n",
                 fleet_diffs,
                 static_cast<unsigned long long>(fon.stats.static_mismatches));
    return 1;
  }
  const double fsteps_off = foff.stats.emulation_steps.sum;
  const double fsteps_on = fon.stats.emulation_steps.sum;

  heading("unique EIP-1167 fleet, detection only (best of 3, cold)");
  row("fleet size (all unique blobs)",
      std::to_string(fleet_inputs().size()));
  row("detection wall-clock OFF", fmt(foff.wall_ms, " ms"));
  row("detection wall-clock ON", fmt(fon.wall_ms, " ms"));
  row("  wall-clock saved", pct(foff.wall_ms - fon.wall_ms, foff.wall_ms));
  row("emulation steps OFF", fmt(fsteps_off));
  row("emulation steps ON", fmt(fsteps_on));
  row("  steps saved", pct(fsteps_off - fsteps_on, fsteps_off));
  row("EIP-1167 fast-path skips",
      std::to_string(fon.stats.static_skipped_minimal));
  row("verdict diffs vs OFF sweep", std::to_string(fleet_diffs));

  results.set("fleet_ms_off", foff.wall_ms);
  results.set("fleet_ms_on", fon.wall_ms);
  results.set("fleet_wall_saved_pct",
              foff.wall_ms == 0.0
                  ? 0.0
                  : 100.0 * (foff.wall_ms - fon.wall_ms) / foff.wall_ms);
  results.set("fleet_steps_off", fsteps_off);
  results.set("fleet_steps_on", fsteps_on);
  results.set("fleet_steps_saved_pct",
              fsteps_off == 0.0
                  ? 0.0
                  : 100.0 * (fsteps_off - fsteps_on) / fsteps_off);
  results.write();
  return 0;
}
