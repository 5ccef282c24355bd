// The chaos matrix: a durable sweep over the fault-injecting model
// filesystem, power-cut at EVERY mutating-op boundary, then heal + reboot +
// a booting incremental() — asserting the resumed journal is
// record-identical to a fault-free run's and that committed work is never
// recomputed. Plus the three targeted
// disasters: ENOSPC mid-sweep (graceful in-memory degradation), fsync
// failure (fsyncgate fail-stop: the failed file is never synced again), and
// at-rest bit rot in a committed shard (self-heal recomputes exactly the
// damaged hash group). And the commit schedule: one journal fsync per shard,
// one manifest per run() or boot, none per lap.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/report.h"
#include "datagen/contract_factory.h"
#include "datagen/population.h"
#include "obs/metrics.h"
#include "record_oracle.h"
#include "store/durable_sweep.h"
#include "store/journal.h"
#include "store/records.h"
#include "util/vfs_fault.h"

namespace {

using namespace proxion;
using util::FaultInjectingVfs;
using util::FaultVfsConfig;
using util::PowerCutException;

constexpr char kJournal[] = "chaos/sweep.journal";

datagen::Population make_population(std::uint32_t n = 240) {
  datagen::PopulationSpec spec;
  spec.total_contracts = n;
  return datagen::PopulationGenerator().generate(spec);
}

/// The deterministic analysis aggregates (same set test_durable_sweep
/// checks): everything except wall-clock and cache accounting.
void expect_same_verdicts(const core::LandscapeStats& a,
                          const core::LandscapeStats& b) {
  EXPECT_EQ(a.total_contracts, b.total_contracts);
  EXPECT_EQ(a.proxies, b.proxies);
  EXPECT_EQ(a.emulation_errors, b.emulation_errors);
  EXPECT_EQ(a.hidden_proxies, b.hidden_proxies);
  EXPECT_EQ(a.unique_proxy_codehashes, b.unique_proxy_codehashes);
  EXPECT_EQ(a.function_collisions, b.function_collisions);
  EXPECT_EQ(a.storage_collisions, b.storage_collisions);
  EXPECT_EQ(a.exploitable_storage_collisions, b.exploitable_storage_collisions);
  EXPECT_EQ(a.diamonds_recovered, b.diamonds_recovered);
  EXPECT_EQ(a.by_standard, b.by_standard);
  EXPECT_EQ(a.proxies_by_year, b.proxies_by_year);
  EXPECT_EQ(a.function_collisions_by_year, b.function_collisions_by_year);
  EXPECT_EQ(a.storage_collisions_by_year, b.storage_collisions_by_year);
  EXPECT_EQ(a.pairs_by_source, b.pairs_by_source);
  EXPECT_EQ(a.upgrade_histogram, b.upgrade_histogram);
  EXPECT_EQ(a.total_upgrade_events, b.total_upgrade_events);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.analyzed_contracts, b.analyzed_contracts);
  EXPECT_EQ(a.errors_by_kind, b.errors_by_kind);
}

store::DurableSweepConfig sweep_config(util::Vfs& vfs,
                                       obs::Registry* reg = nullptr) {
  store::DurableSweepConfig sc;
  sc.journal_path = kJournal;
  sc.shard_size = 60;
  sc.vfs = &vfs;
  sc.registry = reg;
  return sc;
}

store::DurableSweepResult run_sweep(datagen::Population& pop,
                                    const std::vector<core::SweepInput>& inputs,
                                    util::Vfs& vfs,
                                    obs::Registry* reg = nullptr) {
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, {});
  store::DurableSweep sweep(pipeline, *pop.chain, &pop.sources,
                            sweep_config(vfs, reg));
  return sweep.run(inputs);
}

/// What a restarted process runs: a fresh instance's first incremental()
/// call boots from the journal and finishes the sweep.
store::DurableSweepResult resume_sweep(
    datagen::Population& pop, const std::vector<core::SweepInput>& inputs,
    util::Vfs& vfs, obs::Registry* reg = nullptr) {
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, {});
  store::DurableSweep sweep(pipeline, *pop.chain, &pop.sources,
                            sweep_config(vfs, reg));
  return sweep.incremental(inputs, {});
}

TEST(ChaosCrash, PowerCutAtEveryBoundaryResumesBitIdentical) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  // Fault-free reference through the model filesystem: the verdict oracle
  // AND the boundary count (the op sequence is deterministic, so every
  // index in [0, boundaries) is a distinct crash point).
  FaultInjectingVfs ref_vfs;
  const store::DurableSweepResult ref = run_sweep(pop, inputs, ref_vfs);
  ASSERT_TRUE(ref.error.empty()) << ref.error;
  ASSERT_TRUE(ref.complete);
  ASSERT_GE(ref.shards_run, 4u) << "population/shard_size must give >=4 "
                                   "shards for a meaningful matrix";
  const std::uint64_t boundaries = ref_vfs.mutating_ops();
  ASSERT_GT(boundaries, 20u);
  const test_oracle::RecordMap ref_records =
      test_oracle::last_records(kJournal, ref_vfs);
  ASSERT_EQ(ref_records.size(), inputs.size());

  std::uint64_t cuts_with_commits = 0;
  for (std::uint64_t b = 0; b < boundaries; ++b) {
    SCOPED_TRACE("power cut at mutating-op boundary " + std::to_string(b));
    FaultVfsConfig cfg;
    cfg.power_cut_at = static_cast<std::int64_t>(b);
    FaultInjectingVfs vfs(cfg);

    bool cut = false;
    try {
      (void)run_sweep(pop, inputs, vfs);
    } catch (const PowerCutException&) {
      cut = true;
    }
    ASSERT_TRUE(cut);  // the reference guarantees op b exists

    vfs.heal();
    vfs.reboot();

    // Whatever the journal committed before the cut must replay with zero
    // recomputation; resume finishes the rest bit-identically.
    const std::uint64_t committed =
        test_oracle::committed_contracts(kJournal, vfs);
    if (committed > 0) ++cuts_with_commits;

    const store::DurableSweepResult res = resume_sweep(pop, inputs, vfs);
    ASSERT_TRUE(res.error.empty()) << res.error;
    ASSERT_TRUE(res.complete);
    EXPECT_FALSE(res.degraded);
    EXPECT_GE(res.replayed, committed);
    EXPECT_EQ(res.replayed + res.recomputed, inputs.size());
    expect_same_verdicts(res.stats, ref.stats);
    // Same chain, same height: every last record matches exactly.
    test_oracle::expect_same_records(test_oracle::last_records(kJournal, vfs),
                                     ref_records);

    // The journal reads back whole after the resume, and the manifest
    // records full coverage.
    const auto replay = store::read_journal(kJournal, vfs);
    ASSERT_TRUE(replay.has_value());
    EXPECT_FALSE(replay->tail_dropped);
    ASSERT_FALSE(replay->frames.empty());
    EXPECT_EQ(replay->frames.back().type, store::RecordType::kSweepEnd);
    const auto final_manifest =
        store::load_manifest(store::manifest_path_for(kJournal), vfs);
    ASSERT_TRUE(final_manifest.has_value());
    EXPECT_TRUE(final_manifest->complete);
    EXPECT_EQ(final_manifest->contracts_committed, inputs.size());
  }
  // The matrix must include cuts AFTER durable commits, or the
  // zero-recompute claim was never exercised.
  EXPECT_GT(cuts_with_commits, boundaries / 2);
}

TEST(ChaosCrash, EnospcMidSweepCompletesDegradedThenResumesClean) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  FaultInjectingVfs ref_vfs;
  const store::DurableSweepResult ref = run_sweep(pop, inputs, ref_vfs);
  ASSERT_TRUE(ref.error.empty()) << ref.error;
  const std::uint64_t journal_size = ref_vfs.peek(kJournal)->size();

  // Disk fills mid-sweep: after roughly half the journal's bytes.
  FaultVfsConfig cfg;
  cfg.enospc_after_bytes = static_cast<std::int64_t>(journal_size / 2);
  FaultInjectingVfs vfs(cfg);
  obs::Registry reg;
  const store::DurableSweepResult res = run_sweep(pop, inputs, vfs, &reg);

  // Verdicts complete and correct; checkpointing stopped at the last good
  // commit; the failure is reported with its taxonomy kind and gauge.
  ASSERT_TRUE(res.error.empty()) << res.error;
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.degraded);
  ASSERT_TRUE(res.disk_error.has_value());
  EXPECT_EQ(res.disk_error->kind, core::ErrorKind::kDiskIo);
  EXPECT_FALSE(res.disk_error->detail.empty());
  EXPECT_EQ(res.stats.sweep_degraded, 1u);
  EXPECT_EQ(reg.gauge("sweep.degraded").value(), 1);
  expect_same_verdicts(res.stats, ref.stats);

  // At least one shard made it to disk before the disk filled, and the
  // degraded sweep stored no manifest claiming completion.
  const std::uint64_t committed =
      test_oracle::committed_contracts(kJournal, vfs);
  ASSERT_GT(committed, 0u);
  ASSERT_LT(committed, inputs.size());
  EXPECT_FALSE(
      store::load_manifest(store::manifest_path_for(kJournal), vfs).has_value());

  // Operator frees disk space; resume finishes the checkpoint without
  // recomputing the committed prefix.
  vfs.heal();
  obs::Registry reg2;
  const store::DurableSweepResult healed = resume_sweep(pop, inputs, vfs, &reg2);
  ASSERT_TRUE(healed.error.empty()) << healed.error;
  EXPECT_TRUE(healed.complete);
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(reg2.gauge("sweep.degraded").value(), 0);
  EXPECT_GE(healed.replayed, committed);
  EXPECT_EQ(healed.replayed + healed.recomputed, inputs.size());
  expect_same_verdicts(healed.stats, ref.stats);
}

TEST(ChaosCrash, FsyncFailureFailsStopAndNeverSyncsThatFileAgain) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  FaultInjectingVfs ref_vfs;
  const store::DurableSweepResult ref = run_sweep(pop, inputs, ref_vfs);
  ASSERT_TRUE(ref.error.empty()) << ref.error;
  // Fault-free journal sync schedule: create + one per shard + finish.
  const std::uint64_t ref_journal_syncs = ref_vfs.fsync_calls(kJournal);
  ASSERT_GE(ref_journal_syncs, 6u);

  // Global sync #2 is the journal sync of the SECOND shard commit (create
  // =0, shard-0 journal=1): it fails and the model drops the dirty pages —
  // the fsyncgate scenario where a retry would "succeed" over lost data.
  FaultVfsConfig cfg;
  cfg.fail_fsync_at = 2;
  FaultInjectingVfs vfs(cfg);
  obs::Registry reg;
  const store::DurableSweepResult res = run_sweep(pop, inputs, vfs, &reg);

  ASSERT_TRUE(res.error.empty()) << res.error;
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.degraded);
  ASSERT_TRUE(res.disk_error.has_value());
  EXPECT_EQ(res.disk_error->kind, core::ErrorKind::kDiskIo);
  EXPECT_NE(res.disk_error->detail.find("fsync"), std::string::npos);
  expect_same_verdicts(res.stats, ref.stats);

  // THE fsyncgate assertion: after the failed sync the writer dropped the
  // file — exactly 3 fsync attempts ever touched the journal (create,
  // shard 0, the shard-1 failure), far short of the fault-free schedule.
  EXPECT_EQ(vfs.fsync_calls(kJournal), 3u);
  EXPECT_LT(vfs.fsync_calls(kJournal), ref_journal_syncs);

  // Only shard 0 is on record as committed: one commit frame.
  const auto replay = store::read_journal(kJournal, vfs);
  ASSERT_TRUE(replay.has_value());
  std::size_t commits = 0;
  for (const store::JournalFrame& frame : replay->frames) {
    if (frame.type == store::RecordType::kShardCommit) ++commits;
  }
  EXPECT_EQ(commits, 1u);
}

TEST(CommitSchedule, RunSyncsTheJournalOncePerShardAndStoresOneManifest) {
  // A shard commit is its records, its kShardCommit frame and one journal
  // fsync. The manifest is stored once, when the run completes.
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();
  FaultInjectingVfs vfs;
  const store::DurableSweepResult res = run_sweep(pop, inputs, vfs);
  ASSERT_TRUE(res.error.empty()) << res.error;
  ASSERT_TRUE(res.complete);
  ASSERT_GE(res.shards_run, 4u);
  // Creation, one per shard, the sweep end.
  EXPECT_EQ(vfs.fsync_calls(kJournal), res.shards_run + 2);
  // Every other file sync is a manifest write.
  EXPECT_EQ(vfs.syncs_total() - vfs.fsync_calls(kJournal), 1u);
  const auto manifest =
      store::load_manifest(store::manifest_path_for(kJournal), vfs);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_TRUE(manifest->complete);
  EXPECT_EQ(manifest->shards_committed, res.shards_run);
  EXPECT_EQ(manifest->contracts_committed, inputs.size());
  EXPECT_EQ(manifest->committed_bytes, vfs.peek(kJournal)->size());

  // A new journal at the path drops the old journal's manifest: a run that
  // stops after one shard leaves none.
  store::DurableSweepConfig stop_early = sweep_config(vfs);
  stop_early.max_shards = 1;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, {});
  const store::DurableSweepResult stopped =
      store::DurableSweep(pipeline, *pop.chain, &pop.sources, stop_early)
          .run(inputs);
  ASSERT_TRUE(stopped.error.empty()) << stopped.error;
  EXPECT_FALSE(stopped.complete);
  EXPECT_FALSE(
      store::load_manifest(store::manifest_path_for(kJournal), vfs).has_value());
}

TEST(CommitSchedule, RecomputingLapSyncsTheJournalTwiceAndKeepsTheManifest) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();
  FaultInjectingVfs vfs;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, {});
  store::DurableSweep sweep(pipeline, *pop.chain, &pop.sources,
                            sweep_config(vfs));
  ASSERT_TRUE(sweep.incremental(inputs, {}).error.empty());
  const std::string manifest_path = store::manifest_path_for(kJournal);
  const std::optional<std::vector<std::uint8_t>> manifest_bytes =
      vfs.peek(manifest_path);
  ASSERT_TRUE(manifest_bytes.has_value());
  const std::uint64_t journal_syncs = vfs.fsync_calls(kJournal);
  const std::uint64_t syncs = vfs.syncs_total();

  // Upgrade one proxy; the lap re-runs it in one shard.
  evm::Address logic, proxy;
  for (const auto& c : pop.contracts) {
    if (c.archetype == datagen::Archetype::kToken && logic.is_zero()) {
      logic = c.address;
    }
  }
  for (const auto& c : pop.contracts) {
    if (c.archetype == datagen::Archetype::kEip1967Proxy &&
        c.logic_truth != logic) {
      proxy = c.address;
      break;
    }
  }
  ASSERT_FALSE(logic.is_zero());
  ASSERT_FALSE(proxy.is_zero());
  pop.chain->set_storage(proxy, datagen::ContractFactory::eip1967_slot(),
                         logic.to_word());
  pop.chain->mine_block();
  const store::DurableSweepResult lap = sweep.incremental(inputs, {proxy});
  ASSERT_TRUE(lap.error.empty()) << lap.error;
  ASSERT_GE(lap.recomputed, 1u);
  ASSERT_EQ(lap.shards_run, 1u);

  // The shard's commit and the sweep end; nothing else is synced.
  EXPECT_EQ(vfs.fsync_calls(kJournal) - journal_syncs, 2u);
  EXPECT_EQ(vfs.syncs_total() - syncs, 2u);
  EXPECT_EQ(vfs.peek(manifest_path), manifest_bytes);
}

TEST(ChaosCrash, BitRotInCommittedShardSelfHealsExactlyThatGroup) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  FaultInjectingVfs vfs;
  const store::DurableSweepResult base = run_sweep(pop, inputs, vfs);
  ASSERT_TRUE(base.error.empty()) << base.error;
  ASSERT_TRUE(base.complete);

  // Walk the journal's frames on disk to find a kContract record from a
  // SMALL hash group (so the heal's blast radius has a tight bound), then
  // flip one payload byte — at-rest bit rot inside a committed shard.
  const std::vector<std::uint8_t> bytes = *vfs.peek(kJournal);
  auto u32_at = [&](std::size_t p) {
    return static_cast<std::uint32_t>(bytes[p]) |
           static_cast<std::uint32_t>(bytes[p + 1]) << 8 |
           static_cast<std::uint32_t>(bytes[p + 2]) << 16 |
           static_cast<std::uint32_t>(bytes[p + 3]) << 24;
  };
  struct Frame {
    std::size_t payload_off;
    std::size_t len;
    store::RecordType type;
  };
  std::vector<Frame> frames;
  std::vector<store::ContractRecord> records;
  for (std::size_t pos = store::kJournalHeaderSize;
       pos + store::kFrameOverhead <= bytes.size();) {
    const std::uint32_t len = u32_at(pos);
    Frame f{pos + 5, len, static_cast<store::RecordType>(bytes[pos + 4])};
    frames.push_back(f);
    if (f.type == store::RecordType::kContract) {
      auto rec = store::decode_contract_record(
          {bytes.data() + f.payload_off, f.len});
      ASSERT_TRUE(rec.has_value());
      records.push_back(std::move(*rec));
    }
    pos += store::kFrameOverhead + len;
  }
  auto group_size = [&](const crypto::Hash256& h) {
    std::size_t n = 0;
    for (const auto& r : records) n += r.code_hash == h ? 1 : 0;
    return n;
  };
  std::optional<Frame> victim_frame;
  std::size_t victim_group = 0;
  std::size_t rec_idx = 0;
  for (const Frame& f : frames) {
    if (f.type != store::RecordType::kContract) continue;
    const std::size_t g = group_size(records[rec_idx].code_hash);
    ++rec_idx;
    if (g <= 8 && f.len > 0) {
      victim_frame = f;
      victim_group = g;
      break;
    }
  }
  ASSERT_TRUE(victim_frame.has_value());
  ASSERT_TRUE(
      vfs.flip_byte(kJournal, victim_frame->payload_off + victim_frame->len / 2));

  // Boot: the salvage replay loses exactly the destroyed record, its hash
  // group comes up short, and the whole group — nothing else — recomputes.
  obs::Registry reg;
  const store::DurableSweepResult healed = resume_sweep(pop, inputs, vfs, &reg);
  ASSERT_TRUE(healed.error.empty()) << healed.error;
  EXPECT_TRUE(healed.complete);
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(healed.recomputed, victim_group);
  EXPECT_EQ(healed.replayed, inputs.size() - victim_group);
  EXPECT_EQ(healed.stats.selfheal_shards, 1u);
  EXPECT_EQ(reg.gauge("sweep.selfheal_shards").value(), 1);
  expect_same_verdicts(healed.stats, base.stats);

  // The corrupt gap stays in the file (append-only journal), but a salvage
  // scan reads the healed sweep end-to-end.
  const auto replay =
      store::read_journal(kJournal, vfs, store::ReplayOptions{.salvage = true});
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->corrupt_gaps, 1u);
  EXPECT_FALSE(replay->tail_dropped);
  EXPECT_EQ(replay->frames.back().type, store::RecordType::kSweepEnd);
}

}  // namespace
