// End-to-end tests for the durable sharded sweep: bit-identity with a
// monolithic run, kill-at-mid-sweep + a booting incremental() with zero
// recomputation of committed work, torn-tail recovery, incremental re-sweep
// after an upgrade wave, quarantine healing through the journal, and
// record-level identity with a cold sweep after code moves and outages, on
// laps and at boot.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chain/archive_node.h"
#include "chain/fault_injection.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "crypto/keccak.h"
#include "datagen/contract_factory.h"
#include "datagen/population.h"
#include "record_oracle.h"
#include "store/durable_sweep.h"
#include "store/journal.h"
#include "store/records.h"

namespace {

using namespace proxion;

namespace fs = std::filesystem;

std::string temp_journal(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "proxion_sweep_tests";
  fs::create_directories(dir);
  const fs::path p = dir / name;
  fs::remove(p);
  return p.string();
}

datagen::Population make_population(std::uint32_t n = 900) {
  datagen::PopulationSpec spec;
  spec.total_contracts = n;
  return datagen::PopulationGenerator().generate(spec);
}

/// The deterministic analysis aggregates: everything except wall-clock and
/// cache-effectiveness accounting, which legitimately differ between a
/// monolithic and a sharded execution of the same sweep.
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
  // Layout-inference aggregates are per-blob/per-pair deterministic facts
  // and must survive journal round-trips and shard boundaries like the rest.
  EXPECT_EQ(a.layout_inferred, b.layout_inferred);
  EXPECT_EQ(a.layout_reliable, b.layout_reliable);
  EXPECT_EQ(a.family_collisions, b.family_collisions);
  EXPECT_EQ(a.collision_pairs_family_checked, b.collision_pairs_family_checked);
  EXPECT_EQ(a.collision_pairs_source_free, b.collision_pairs_source_free);
}

TEST(DurableSweep, MatchesMonolithicRun) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  core::PipelineConfig config;
  core::AnalysisPipeline mono(*pop.chain, &pop.sources, config);
  const auto mono_stats = mono.summarize(mono.run(inputs));

  core::AnalysisPipeline piped(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("match.journal");
  sc.shard_size = 200;
  store::DurableSweep sweep(piped, *pop.chain, &pop.sources, sc);
  const store::DurableSweepResult result = sweep.run(inputs);

  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.replayed, 0u);
  EXPECT_EQ(result.recomputed, inputs.size());
  EXPECT_GT(result.shards_run, 1u);
  expect_same_verdicts(result.stats, mono_stats);
  EXPECT_EQ(result.stats.sweep_shards, result.shards_run);

  EXPECT_EQ(test_oracle::committed_contracts(sc.journal_path), inputs.size());
}

TEST(DurableSweep, ColdSweepHashesNoInputBlob) {
  // The driver fingerprints every input with the code hash its account
  // stores and hands those hashes to the pipeline, so a cold durable sweep
  // spends at least one keccak per input fewer than the monolithic run
  // over the same inputs, which hashes each input blob. One shard keeps
  // the comparison exact: with several, a logic blob delegated to from
  // several shards is fetched and hashed once per such shard, as a
  // separate run() must. The keccak count is process-wide, so a warm-up run
  // pays first for what is hashed once per process: the standard slot
  // constants and the selector memo. Both sides then hash only code, and
  // two workers missing on one selector prototype at once cannot inflate
  // either count.
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();
  core::PipelineConfig config;
  (void)core::AnalysisPipeline(*pop.chain, &pop.sources, config).run(inputs);

  core::AnalysisPipeline piped(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("hash_once.journal");
  sc.shard_size = 0;  // one shard
  store::DurableSweep sweep(piped, *pop.chain, &pop.sources, sc);
  const std::uint64_t durable_before = crypto::keccak_invocations();
  const store::DurableSweepResult result = sweep.run(inputs);
  const std::uint64_t durable = crypto::keccak_invocations() - durable_before;
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_EQ(result.shards_run, 1u);

  core::AnalysisPipeline mono(*pop.chain, &pop.sources, config);
  const std::uint64_t mono_before = crypto::keccak_invocations();
  const auto mono_stats = mono.summarize(mono.run(inputs));
  const std::uint64_t monolithic = crypto::keccak_invocations() - mono_before;

  expect_same_verdicts(result.stats, mono_stats);
  ASSERT_GE(monolithic, inputs.size());
  EXPECT_LE(durable, monolithic - inputs.size())
      << "monolithic run: " << monolithic;
}

TEST(DurableSweep, LapOverDirtyContractsHashesNoCode) {
  // A lap fingerprints its dirty set from the code hashes the chain stored
  // at deployment: touching every contract without changing it re-examines
  // each one and hashes nothing.
  datagen::Population pop = make_population(300);
  const auto inputs = pop.sweep_inputs();
  core::AnalysisPipeline piped(*pop.chain, &pop.sources);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("lap_no_hash.journal");
  sc.shard_size = 100;
  store::DurableSweep sweep(piped, *pop.chain, &pop.sources, sc);
  ASSERT_TRUE(sweep.incremental(inputs, {}).error.empty());

  store::AddressSet touched;
  for (const auto& input : inputs) touched.insert(input.address);
  const std::uint64_t before = crypto::keccak_invocations();
  const store::DurableSweepResult lap = sweep.incremental(inputs, touched);
  const std::uint64_t spent = crypto::keccak_invocations() - before;
  ASSERT_TRUE(lap.error.empty()) << lap.error;
  EXPECT_EQ(lap.examined, inputs.size());
  EXPECT_EQ(lap.recomputed, 0u);
  EXPECT_EQ(spent, 0u);
}

TEST(DurableSweep, RunWithGivenCodeHashesMatchesRunThatHashes) {
  // Handing run() each input's code hash changes what it hashes, not what
  // it reports.
  datagen::Population pop = make_population(300);
  const auto inputs = pop.sweep_inputs();
  std::vector<crypto::Hash256> hashes;
  for (const auto& input : inputs) {
    hashes.push_back(evm::code_hash(pop.chain->code_at(input.address)));
  }
  core::AnalysisPipeline hashing(*pop.chain, &pop.sources);
  const auto expected = hashing.run(inputs);
  core::AnalysisPipeline given(*pop.chain, &pop.sources);
  const std::uint64_t before = crypto::keccak_invocations();
  const auto reports = given.run(inputs, {}, nullptr, hashes);
  const std::uint64_t spent = crypto::keccak_invocations() - before;
  ASSERT_EQ(reports.size(), expected.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i], expected[i]) << "input " << i;
  }
  EXPECT_LT(spent, inputs.size()) << "the inputs were hashed again";
  EXPECT_THROW(given.run(inputs, {}, nullptr,
                         std::span(hashes).first(hashes.size() - 1)),
               std::invalid_argument);
}

TEST(DurableSweep, KillMidSweepThenResumeIsBitIdentical) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  core::PipelineConfig config;
  core::AnalysisPipeline mono(*pop.chain, &pop.sources, config);
  const auto mono_stats = mono.summarize(mono.run(inputs));

  core::AnalysisPipeline piped(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("kill.journal");
  sc.shard_size = 150;
  sc.max_shards = 2;  // deterministic stand-in for `kill -9` after 2 commits
  store::DurableSweep killed(piped, *pop.chain, &pop.sources, sc);
  const store::DurableSweepResult partial = killed.run(inputs);
  ASSERT_TRUE(partial.error.empty()) << partial.error;
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.shards_run, 2u);
  ASSERT_GT(partial.recomputed, 0u);
  ASSERT_LT(partial.recomputed, inputs.size());

  // The journal's commit frames cover the two shards, and no more.
  EXPECT_EQ(test_oracle::committed_contracts(sc.journal_path),
            partial.recomputed);

  sc.max_shards = 0;
  store::DurableSweep resumed(piped, *pop.chain, &pop.sources, sc);
  const store::DurableSweepResult result = resumed.incremental(inputs, {});
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.complete);
  // Zero recomputation of committed work: every journaled contract replays.
  EXPECT_EQ(result.replayed, partial.recomputed);
  EXPECT_EQ(result.recomputed, inputs.size() - partial.recomputed);
  expect_same_verdicts(result.stats, mono_stats);
  EXPECT_EQ(result.stats.journal_replayed, result.replayed);

  EXPECT_EQ(test_oracle::committed_contracts(sc.journal_path), inputs.size());
}

TEST(DurableSweep, ResumeSurvivesTornTail) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  core::PipelineConfig config;
  core::AnalysisPipeline mono(*pop.chain, &pop.sources, config);
  const auto mono_stats = mono.summarize(mono.run(inputs));

  core::AnalysisPipeline piped(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("torn.journal");
  sc.shard_size = 150;
  sc.max_shards = 3;
  store::DurableSweep killed(piped, *pop.chain, &pop.sources, sc);
  const store::DurableSweepResult partial = killed.run(inputs);
  ASSERT_TRUE(partial.error.empty()) << partial.error;
  ASSERT_FALSE(partial.complete);

  // A crash mid-append leaves a torn frame past the last commit; fake one.
  {
    std::ofstream out(sc.journal_path,
                      std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 0x02, 0x11, 0x22};
    out.write(torn, sizeof(torn));
  }

  sc.max_shards = 0;
  store::DurableSweep resumed(piped, *pop.chain, &pop.sources, sc);
  const store::DurableSweepResult result = resumed.incremental(inputs, {});
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.replayed, partial.recomputed);
  expect_same_verdicts(result.stats, mono_stats);

  // The healed journal reads back clean end to end.
  const auto replay = store::read_journal(sc.journal_path);
  ASSERT_TRUE(replay.has_value());
  EXPECT_FALSE(replay->tail_dropped);
  EXPECT_EQ(replay->frames.back().type, store::RecordType::kShardCommit);
}

TEST(DurableSweep, IncrementalWithoutChangesRecomputesNothing) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  core::PipelineConfig config;
  core::AnalysisPipeline piped(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("steady.journal");
  sc.shard_size = 200;
  store::DurableSweep sweep(piped, *pop.chain, &pop.sources, sc);
  const store::DurableSweepResult first = sweep.run(inputs);
  ASSERT_TRUE(first.error.empty()) << first.error;

  const store::DurableSweepResult second = sweep.incremental(inputs, {});
  ASSERT_TRUE(second.error.empty()) << second.error;
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.recomputed, 0u);
  EXPECT_EQ(second.replayed, inputs.size());
  expect_same_verdicts(second.stats, first.stats);
}

TEST(DurableSweep, MappingKeyFlipBetweenLapsStaysBitIdentical) {
  // run() keeps no memo past its return, so a second lap over a chain whose
  // *storage* mutated between laps — here a mapping element flipped under a
  // keccak-derived slot — must be bit-identical to a cold pipeline over the
  // mutated chain. A stale cross-lap memo would show up as a
  // verdict/aggregate drift.
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  core::PipelineConfig config;
  core::AnalysisPipeline piped(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("mapflip_lap1.journal");
  sc.shard_size = 200;
  store::DurableSweep lap1(piped, *pop.chain, &pop.sources, sc);
  const store::DurableSweepResult first = lap1.run(inputs);
  ASSERT_TRUE(first.error.empty()) << first.error;
  ASSERT_TRUE(first.complete);

  // Flip a mapping element on every population contract: the balances-style
  // mapping rooted at slot 2, keyed by a fresh attacker address — slot =
  // keccak256(key ++ 2).
  const evm::U256 key = evm::Address::from_label("flip.attacker").to_word();
  evm::Bytes preimage(64, 0);
  const auto key_be = key.to_be_bytes();
  const auto base_be = evm::U256{2}.to_be_bytes();
  std::copy(key_be.begin(), key_be.end(), preimage.begin());
  std::copy(base_be.begin(), base_be.end(), preimage.begin() + 32);
  const evm::U256 flipped = evm::to_u256(crypto::keccak256(preimage));
  for (const auto& input : inputs) {
    pop.chain->set_storage(input.address, flipped, evm::U256{1});
  }

  // Lap 2 on a fresh journal reuses the SAME pipeline and must match a cold
  // pipeline.
  sc.journal_path = temp_journal("mapflip_lap2.journal");
  store::DurableSweep lap2(piped, *pop.chain, &pop.sources, sc);
  const store::DurableSweepResult second = lap2.run(inputs);
  ASSERT_TRUE(second.error.empty()) << second.error;
  ASSERT_TRUE(second.complete);

  core::AnalysisPipeline cold(*pop.chain, &pop.sources, config);
  const auto cold_stats = cold.summarize(cold.run(inputs));
  expect_same_verdicts(second.stats, cold_stats);
}

TEST(DurableSweep, IncrementalAfterUpgradeWaveReanalyzesOnlyChanges) {
  datagen::Population pop = make_population(1'200);
  const auto inputs = pop.sweep_inputs();

  core::PipelineConfig config;
  core::AnalysisPipeline piped(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("wave.journal");
  sc.shard_size = 250;
  store::DurableSweep sweep(piped, *pop.chain, &pop.sources, sc);
  const store::DurableSweepResult base = sweep.run(inputs);
  ASSERT_TRUE(base.error.empty()) << base.error;

  // Upgrade wave: repoint k EIP-1967 proxies at a different logic contract.
  const evm::U256 eip1967_slot = evm::U256::from_hex(
      "360894a13ba1a3210667c828492db98dca3e2076cc3735a920a3ca505d382bbc");
  evm::Address new_logic;
  for (const auto& c : pop.contracts) {
    if (c.archetype == datagen::Archetype::kToken) {
      new_logic = c.address;  // any non-proxy contract with code will do
      break;
    }
  }
  ASSERT_FALSE(new_logic.is_zero());
  std::vector<evm::Address> upgraded;
  pop.chain->mine_block();
  for (const auto& c : pop.contracts) {
    if (upgraded.size() >= 5) break;
    if (c.archetype != datagen::Archetype::kEip1967Proxy) continue;
    if (c.logic_truth == new_logic) continue;
    pop.chain->set_storage(c.address, eip1967_slot, new_logic.to_word());
    upgraded.push_back(c.address);
  }
  ASSERT_EQ(upgraded.size(), 5u);
  pop.chain->mine_block();

  const store::DurableSweepResult inc = sweep.incremental(inputs, {});
  ASSERT_TRUE(inc.error.empty()) << inc.error;
  EXPECT_TRUE(inc.complete);
  // Only the upgraded proxies re-enter the pipeline; the other ~1200 replay.
  EXPECT_EQ(inc.recomputed, upgraded.size());
  EXPECT_EQ(inc.replayed, inputs.size() - upgraded.size());

  // The merged result equals a from-scratch sweep of the mutated chain.
  core::AnalysisPipeline fresh(*pop.chain, &pop.sources, config);
  const auto fresh_stats = fresh.summarize(fresh.run(inputs));
  expect_same_verdicts(inc.stats, fresh_stats);
  // The wave's upgrade events are visible in the merged histogram.
  EXPECT_EQ(inc.stats.total_upgrade_events,
            base.stats.total_upgrade_events + upgraded.size());
}

TEST(DurableSweep, ResumeRetriesQuarantinedRecords) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  core::PipelineConfig config;
  core::AnalysisPipeline piped(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("sick.journal");
  sc.shard_size = 200;
  store::DurableSweep sweep(piped, *pop.chain, &pop.sources, sc);
  const store::DurableSweepResult base = sweep.run(inputs);
  ASSERT_TRUE(base.error.empty()) << base.error;
  const auto clean_stats = base.stats;

  // Append a quarantined duplicate for one contract, as a crash-adjacent
  // RPC outage would have journaled. Last-wins: it supersedes the healthy
  // record already in the journal.
  const auto replay = store::read_journal(sc.journal_path);
  ASSERT_TRUE(replay.has_value());
  std::vector<store::ContractRecord> journaled;
  for (const auto& frame : replay->frames) {
    if (frame.type != store::RecordType::kContract) continue;
    auto rec = store::decode_contract_record(frame.payload);
    ASSERT_TRUE(rec.has_value());
    journaled.push_back(std::move(*rec));
  }
  auto group_size = [&](const crypto::Hash256& h) {
    std::size_t n = 0;
    for (const auto& r : journaled) n += r.code_hash == h ? 1 : 0;
    return n;
  };
  // A proxy from a small clone family, so the whole-group recompute below
  // has a known, tight size.
  std::optional<store::ContractRecord> victim;
  for (const auto& rec : journaled) {
    if (rec.analysis.proxy.verdict == core::ProxyVerdict::kProxy &&
        group_size(rec.code_hash) <= 8) {
      victim = rec;
      break;
    }
  }
  ASSERT_TRUE(victim.has_value());
  ASSERT_FALSE(victim->analysis.deduplicated);  // the group's representative
  const std::size_t victim_group = group_size(victim->code_hash);
  victim->analysis.error = core::ErrorRecord{core::ErrorKind::kRpcExhausted,
                                             "pairs", "injected outage"};
  {
    auto writer = store::JournalWriter::open_append(sc.journal_path);
    ASSERT_TRUE(writer.has_value());
    ASSERT_TRUE(writer->append(store::RecordType::kContract,
                               store::encode_contract_record(*victim)));
    ASSERT_TRUE(writer->sync());
  }

  // run() keeps no index, so this boots and reads the journal.
  const store::DurableSweepResult healed = sweep.incremental(inputs, {});
  ASSERT_TRUE(healed.error.empty()) << healed.error;
  EXPECT_TRUE(healed.complete);
  // The victim is its group's representative: with no healthy verdict of
  // its own to seed from, its whole hash group re-ran; everything else
  // replayed.
  EXPECT_EQ(healed.recomputed, victim_group);
  EXPECT_EQ(healed.replayed + healed.recomputed, inputs.size());
  EXPECT_EQ(healed.stats.quarantined, 0u);
  expect_same_verdicts(healed.stats, clean_stats);
}

TEST(DurableSweep, ShardSizeZeroDegeneratesToOneShard) {
  datagen::Population pop = make_population(300);
  const auto inputs = pop.sweep_inputs();
  core::PipelineConfig config;
  core::AnalysisPipeline piped(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("mono.journal");
  sc.shard_size = 0;
  const auto result =
      store::DurableSweep(piped, *pop.chain, &pop.sources, sc).run(inputs);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.shards_run, 1u);
  EXPECT_EQ(result.recomputed, inputs.size());
}

/// Cold reference: a fresh pipeline's durable run() over the chain as it is
/// now, into its own journal.
void cold_sweep(datagen::Population& pop,
                const std::vector<core::SweepInput>& inputs,
                const std::string& journal, core::PipelineConfig config = {}) {
  core::AnalysisPipeline cold(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = journal;
  sc.shard_size = 200;
  const auto result =
      store::DurableSweep(cold, *pop.chain, &pop.sources, sc).run(inputs);
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_TRUE(result.complete);
}

/// The members, in input order, of the largest clone family of emulated
/// proxies in a journal. Their verdicts carry the representative's
/// address-seeded probe selector (static-tier skips, such as EIP-1167
/// clones, carry none); the representative is the first member.
std::vector<evm::Address> largest_emulated_family(
    const std::string& journal, const std::vector<core::SweepInput>& inputs) {
  std::map<crypto::Hash256, std::vector<evm::Address>> families;
  const test_oracle::RecordMap journaled = test_oracle::last_records(journal);
  for (const auto& input : inputs) {
    const store::ContractRecord& rec = journaled.at(input.address);
    if (rec.analysis.proxy.is_proxy() &&
        rec.analysis.proxy.probe_selector != 0) {
      families[rec.code_hash].push_back(input.address);
    }
  }
  std::vector<evm::Address> largest;
  for (auto& [hash, members] : families) {
    if (members.size() > largest.size()) largest = std::move(members);
  }
  return largest;
}

/// An archive whose code fetches for one address always fail.
class CodeOutageNode final : public chain::IArchiveNode {
 public:
  CodeOutageNode(const chain::IArchiveNode& inner, const evm::Address& victim)
      : inner_(inner), victim_(victim) {}

  evm::U256 get_storage_at(const evm::Address& account, const evm::U256& slot,
                           std::uint64_t block) const override {
    return inner_.get_storage_at(account, slot, block);
  }
  std::vector<evm::U256> get_storage_at_many(
      std::span<const chain::StorageQuery> queries) const override {
    return inner_.get_storage_at_many(queries);
  }
  evm::Bytes get_code(const evm::Address& account) const override {
    if (account == victim_) {
      victim_fetches.fetch_add(1);
      throw chain::RpcError(chain::RpcErrorKind::kExhausted,
                            "victim unreachable");
    }
    return inner_.get_code(account);
  }
  std::uint64_t latest_block() const override { return inner_.latest_block(); }
  std::uint64_t get_storage_at_calls() const override {
    return inner_.get_storage_at_calls();
  }
  std::uint64_t get_code_calls() const override {
    return inner_.get_code_calls();
  }
  void reset_counters() const override { inner_.reset_counters(); }

  /// Code requests that reached the victim (every one of them failed).
  mutable std::atomic<std::uint64_t> victim_fetches{0};

 private:
  const chain::IArchiveNode& inner_;
  evm::Address victim_;
};

/// Records every address whose code fetch threw.
class CodeFailureLog final : public chain::IArchiveNode {
 public:
  explicit CodeFailureLog(const chain::IArchiveNode& inner) : inner_(inner) {}

  evm::U256 get_storage_at(const evm::Address& account, const evm::U256& slot,
                           std::uint64_t block) const override {
    return inner_.get_storage_at(account, slot, block);
  }
  std::vector<evm::U256> get_storage_at_many(
      std::span<const chain::StorageQuery> queries) const override {
    return inner_.get_storage_at_many(queries);
  }
  evm::Bytes get_code(const evm::Address& account) const override {
    try {
      return inner_.get_code(account);
    } catch (const chain::RpcError&) {
      std::lock_guard<std::mutex> lk(mu_);
      failed_.insert(account);
      throw;
    }
  }
  std::uint64_t latest_block() const override { return inner_.latest_block(); }
  std::uint64_t get_storage_at_calls() const override {
    return inner_.get_storage_at_calls();
  }
  std::uint64_t get_code_calls() const override {
    return inner_.get_code_calls();
  }
  void reset_counters() const override { inner_.reset_counters(); }

  bool failed(const evm::Address& account) const {
    std::lock_guard<std::mutex> lk(mu_);
    return failed_.contains(account);
  }

 private:
  const chain::IArchiveNode& inner_;
  mutable std::mutex mu_;
  mutable store::AddressSet failed_;
};

TEST(DurableSweep, SetCodeOnRepresentativeLapMatchesColdSweepRecords) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  core::PipelineConfig config;
  core::AnalysisPipeline piped(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("setcode.journal");
  sc.shard_size = 200;
  store::DurableSweep sweep(piped, *pop.chain, &pop.sources, sc);
  ASSERT_TRUE(sweep.run(inputs).error.empty());
  const store::DurableSweepResult boot = sweep.incremental(inputs, {});
  ASSERT_TRUE(boot.error.empty()) << boot.error;
  ASSERT_EQ(boot.recomputed, 0u);

  const std::vector<evm::Address> family =
      largest_emulated_family(sc.journal_path, inputs);
  ASSERT_GE(family.size(), 3u);

  // The representative's code moves to bytecode no other contract has (its
  // own plus a trailing STOP), so the family's next member becomes the
  // representative, and its clones must carry that member's verdict.
  const evm::Address moved = family.front();
  evm::Bytes code = pop.chain->code_at(moved);
  code.push_back(0x00);
  pop.chain->set_code(moved, code);
  pop.chain->mine_block();

  const store::DurableSweepResult lap = sweep.incremental(inputs, {moved});
  ASSERT_TRUE(lap.error.empty()) << lap.error;
  EXPECT_TRUE(lap.complete);
  // The remaining family (size - 1) re-runs whole, plus the moved contract.
  EXPECT_EQ(lap.recomputed, family.size());

  const std::string cold = temp_journal("setcode_cold.journal");
  cold_sweep(pop, inputs, cold);
  // Records the lap kept were computed a block earlier than the cold
  // sweep's.
  test_oracle::expect_same_records(sc.journal_path, cold,
                                   /*same_height=*/false);
}

TEST(DurableSweep, DonorMoveOnLapMatchesColdSweepRecords) {
  // §7.1: every member of a code hash is analyzed with the source of its
  // first verified member. Here that donor is not the group's dedup
  // representative, and its source declares the logic's
  // transfer(address,uint256), a function the proxies' bytecode lacks: the
  // unverified members collide only through the donor. When the donor's
  // code changes, the lap must re-run the members it leaves behind.
  chain::Blockchain chain;
  const evm::Address deployer = evm::Address::from_label("donor.deployer");
  const evm::Address logic = chain.deploy_runtime(
      deployer, datagen::ContractFactory::token_contract(1));
  const evm::Bytes proxy_code = datagen::ContractFactory::eip1967_proxy();
  std::vector<core::SweepInput> inputs;
  for (int k = 0; k < 3; ++k) {
    const evm::Address p = chain.deploy_runtime(deployer, proxy_code);
    chain.set_storage(p, datagen::ContractFactory::eip1967_slot(),
                      logic.to_word());
    inputs.push_back({p});
  }
  chain.mine_block();
  const evm::Address donor = inputs[1].address;
  sourcemeta::SourceRepository sources;
  sourcemeta::SourceRecord declared;
  declared.contract_name = "DeclaredProxy";
  declared.functions.push_back({"transfer(address,uint256)"});
  sources.publish(donor, declared);

  core::AnalysisPipeline piped(chain, &sources);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("donor_move.journal");
  store::DurableSweep sweep(piped, chain, &sources, sc);
  ASSERT_TRUE(sweep.incremental(inputs, {}).error.empty());
  for (const auto& input : inputs) {
    ASSERT_TRUE(test_oracle::last_records(sc.journal_path)
                    .at(input.address)
                    .analysis.function_collision);
  }

  chain.set_code(donor, datagen::ContractFactory::token_contract(2));
  chain.mine_block();
  const store::DurableSweepResult lap = sweep.incremental(inputs, {donor});
  ASSERT_TRUE(lap.error.empty()) << lap.error;
  EXPECT_EQ(lap.recomputed, inputs.size());

  const std::string cold = temp_journal("donor_move_cold.journal");
  core::AnalysisPipeline cold_pipeline(chain, &sources);
  store::DurableSweepConfig cold_config;
  cold_config.journal_path = cold;
  ASSERT_TRUE(store::DurableSweep(cold_pipeline, chain, &sources, cold_config)
                  .run(inputs)
                  .error.empty());
  EXPECT_FALSE(test_oracle::last_records(cold)
                   .at(inputs[0].address)
                   .analysis.function_collision);
  test_oracle::expect_same_records(sc.journal_path, cold);
}

TEST(DurableSweep, OutageHealedByBootMatchesColdSweepRecords) {
  datagen::Population pop = make_population(600);
  const auto inputs = pop.sweep_inputs();

  chain::ArchiveNode inner(*pop.chain);
  chain::FaultProfile profile;
  profile.seed = 99;
  profile.transient_rate = 0.10;
  profile.failures_per_fault = 1'000'000;  // outlasts the retry budget
  chain::FaultInjectingArchiveNode faulty(inner, profile);
  CodeFailureLog log(faulty);
  core::PipelineConfig config;
  config.archive_node = &log;
  config.retry.base_delay_us = 1;
  config.retry.max_delay_us = 20;
  core::AnalysisPipeline piped(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("outage.journal");
  sc.shard_size = 200;
  const store::DurableSweepResult outage =
      store::DurableSweep(piped, *pop.chain, &pop.sources, sc).run(inputs);
  ASSERT_TRUE(outage.error.empty()) << outage.error;
  ASSERT_GT(outage.stats.quarantined, 0u);

  // The failure domain of a code fetch is its code hash: no member of a
  // multi-member hash is quarantined in the fetch while one of them
  // fetched. The outage must have failed the code fetch of a clone
  // family's representative whose verdict is address-specific (an emulated
  // probe), so the family's next address served the hash.
  bool representative_failed = false;
  {
    const test_oracle::RecordMap journaled =
        test_oracle::last_records(sc.journal_path);
    std::map<crypto::Hash256, std::vector<const store::ContractRecord*>>
        families;
    for (const auto& input : inputs) {
      const store::ContractRecord& rec = journaled.at(input.address);
      families[rec.code_hash].push_back(&rec);
    }
    for (const auto& [hash, members] : families) {
      if (members.size() < 2) continue;
      std::size_t fetch_failed = 0;
      bool emulated = false;
      for (const store::ContractRecord* rec : members) {
        fetch_failed += rec->analysis.quarantined() &&
                        rec->analysis.error->phase == "fetch";
        emulated = emulated || rec->analysis.proxy.probe_selector != 0;
      }
      EXPECT_TRUE(fetch_failed == 0 || fetch_failed == members.size())
          << fetch_failed << " of " << members.size()
          << " members quarantined in the fetch";
      representative_failed =
          representative_failed ||
          (emulated && fetch_failed == 0 &&
           log.failed(members.front()->analysis.address));
    }
  }
  ASSERT_TRUE(representative_failed);

  // The backend recovers; a restarted service boots from the journal.
  faulty.heal();
  store::DurableSweep restarted(piped, *pop.chain, &pop.sources, sc);
  const store::DurableSweepResult healed = restarted.incremental(inputs, {});
  ASSERT_TRUE(healed.error.empty()) << healed.error;
  EXPECT_TRUE(healed.complete);
  EXPECT_EQ(healed.stats.quarantined, 0u);

  const std::string cold = temp_journal("outage_cold.journal");
  cold_sweep(pop, inputs, cold);
  test_oracle::expect_same_records(sc.journal_path, cold);
}

TEST(DurableSweep, RerunClonesMatchColdSweepRecordsWhenOneFetchFails) {
  // Two clones of an emulated family re-run without their representative,
  // and the first one's code fetch fails. Code is fetched per code hash, so
  // the second clone's address serves the hash and neither is quarantined;
  // a cold sweep through the same archive takes the hash from the
  // representative and never asks the victim. The boot must journal what
  // the cold sweep does: both clones carry the representative's verdict
  // (seeds are run() arguments, not pipeline state).
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("clones.journal");
  sc.shard_size = 200;
  core::PipelineConfig config;
  {
    core::AnalysisPipeline clean(*pop.chain, &pop.sources, config);
    ASSERT_TRUE(store::DurableSweep(clean, *pop.chain, &pop.sources, sc)
                    .run(inputs)
                    .error.empty());
  }
  const std::vector<evm::Address> family =
      largest_emulated_family(sc.journal_path, inputs);
  ASSERT_GE(family.size(), 3u);

  // Quarantine the family's second and third members, as an outage would
  // have journaled them (last record wins).
  {
    const test_oracle::RecordMap journaled =
        test_oracle::last_records(sc.journal_path);
    auto writer = store::JournalWriter::open_append(sc.journal_path);
    ASSERT_TRUE(writer.has_value());
    for (const evm::Address& clone : {family[1], family[2]}) {
      store::ContractRecord rec = journaled.at(clone);
      rec.analysis.error = core::ErrorRecord{
          core::ErrorKind::kRpcExhausted, "pairs", "injected outage"};
      ASSERT_TRUE(writer->append(store::RecordType::kContract,
                                 store::encode_contract_record(rec)));
    }
    ASSERT_TRUE(writer->sync());
  }

  chain::ArchiveNode inner(*pop.chain);
  CodeOutageNode outage(inner, family[1]);
  config.archive_node = &outage;
  core::AnalysisPipeline piped(*pop.chain, &pop.sources, config);
  const store::DurableSweepResult boot =
      store::DurableSweep(piped, *pop.chain, &pop.sources, sc)
          .incremental(inputs, {});
  ASSERT_TRUE(boot.error.empty()) << boot.error;
  EXPECT_EQ(boot.recomputed, 2u);
  EXPECT_EQ(boot.stats.quarantined, 0u);
  // The boot asked the victim once, and its code never arrived.
  EXPECT_EQ(outage.victim_fetches.load(), 1u);

  const std::string cold = temp_journal("clones_cold.journal");
  cold_sweep(pop, inputs, cold, config);
  EXPECT_EQ(outage.victim_fetches.load(), 1u);
  test_oracle::expect_same_records(sc.journal_path, cold);
}

TEST(DurableSweep, RerunClonesMatchColdSweepRecordsWhenTheFrontIsDown) {
  // Two clones of an emulated family re-run while the family's front (its
  // first member and dedup representative) is unreachable. Code is fetched
  // per code hash: the boot takes it from the first re-run clone, and a
  // cold sweep through the same archive takes it from the family's next
  // address, so the front stays the representative and emulates at its own
  // address. Both journal the clean records.
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("front_down.journal");
  sc.shard_size = 200;
  core::PipelineConfig config;
  {
    core::AnalysisPipeline clean(*pop.chain, &pop.sources, config);
    ASSERT_TRUE(store::DurableSweep(clean, *pop.chain, &pop.sources, sc)
                    .run(inputs)
                    .error.empty());
  }
  const test_oracle::RecordMap clean = test_oracle::last_records(sc.journal_path);
  const std::vector<evm::Address> family =
      largest_emulated_family(sc.journal_path, inputs);
  ASSERT_GE(family.size(), 3u);
  {
    auto writer = store::JournalWriter::open_append(sc.journal_path);
    ASSERT_TRUE(writer.has_value());
    for (const evm::Address& clone : {family[1], family[2]}) {
      store::ContractRecord rec = clean.at(clone);
      rec.analysis.error = core::ErrorRecord{
          core::ErrorKind::kRpcExhausted, "pairs", "injected outage"};
      ASSERT_TRUE(writer->append(store::RecordType::kContract,
                                 store::encode_contract_record(rec)));
    }
    ASSERT_TRUE(writer->sync());
  }

  chain::ArchiveNode inner(*pop.chain);
  CodeOutageNode outage(inner, family.front());
  config.archive_node = &outage;
  core::AnalysisPipeline piped(*pop.chain, &pop.sources, config);
  const store::DurableSweepResult boot =
      store::DurableSweep(piped, *pop.chain, &pop.sources, sc)
          .incremental(inputs, {});
  ASSERT_TRUE(boot.error.empty()) << boot.error;
  EXPECT_EQ(boot.recomputed, 2u);
  EXPECT_EQ(boot.stats.quarantined, 0u);
  EXPECT_EQ(outage.victim_fetches.load(), 0u);

  const std::string cold = temp_journal("front_down_cold.journal");
  cold_sweep(pop, inputs, cold, config);
  EXPECT_EQ(outage.victim_fetches.load(), 1u);
  test_oracle::expect_same_records(sc.journal_path, cold);
  test_oracle::expect_same_records(test_oracle::last_records(cold), clean);
}

/// `proxies` EIP-1967 clones declaring transfer(address,uint256), each
/// delegating to `logic`, as sweep inputs.
std::vector<core::SweepInput> transfer_proxies(chain::Blockchain& chain,
                                               const evm::Address& logic,
                                               int proxies) {
  const evm::Address deployer = evm::Address::from_label("transfer.deployer");
  const evm::Bytes code = datagen::ContractFactory::eip1967_proxy(
      {{.prototype = "transfer(address,uint256)"}});
  std::vector<core::SweepInput> inputs;
  for (int k = 0; k < proxies; ++k) {
    const evm::Address p = chain.deploy_runtime(deployer, code);
    chain.set_storage(p, datagen::ContractFactory::eip1967_slot(),
                      logic.to_word());
    inputs.push_back({p});
  }
  return inputs;
}

/// A non-proxy whose only function is owner().
evm::Bytes owner_only_contract() {
  return datagen::ContractFactory::plain_contract(
      {{.prototype = "owner()",
        .body = datagen::BodyKind::kReturnStorageAddress,
        .slot = evm::U256{0}}});
}

TEST(DurableSweep, LogicCodeChangeOnLapMatchesColdSweepRecords) {
  // A proxy's function collision is computed against its logic's code. The
  // logic (not a sweep input) is rewritten to a contract without
  // transfer(address,uint256): the lap is told only the logic's address,
  // and must re-run the proxies that delegate to it.
  chain::Blockchain chain;
  const evm::Address logic = chain.deploy_runtime(
      evm::Address::from_label("logic.deployer"),
      datagen::ContractFactory::token_contract(1));
  const std::vector<core::SweepInput> inputs =
      transfer_proxies(chain, logic, 3);
  chain.mine_block();

  core::AnalysisPipeline piped(chain, nullptr);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("logic_code.journal");
  store::DurableSweep sweep(piped, chain, nullptr, sc);
  ASSERT_TRUE(sweep.incremental(inputs, {}).error.empty());
  for (const auto& input : inputs) {
    ASSERT_TRUE(test_oracle::last_records(sc.journal_path)
                    .at(input.address)
                    .analysis.function_collision);
  }

  chain.set_code(logic, owner_only_contract());
  chain.mine_block();
  const store::DurableSweepResult lap = sweep.incremental(inputs, {logic});
  ASSERT_TRUE(lap.error.empty()) << lap.error;
  EXPECT_EQ(lap.recomputed, inputs.size());

  const std::string cold = temp_journal("logic_code_cold.journal");
  core::AnalysisPipeline cold_pipeline(chain, nullptr);
  store::DurableSweepConfig cold_config;
  cold_config.journal_path = cold;
  ASSERT_TRUE(store::DurableSweep(cold_pipeline, chain, nullptr, cold_config)
                  .run(inputs)
                  .error.empty());
  EXPECT_FALSE(test_oracle::last_records(cold)
                   .at(inputs[0].address)
                   .analysis.function_collision);
  test_oracle::expect_same_records(sc.journal_path, cold);
}

TEST(DurableSweep, LogicDonorMoveOnLapMatchesColdSweepRecords) {
  // §7.1 on the logic side: the logic is unverified, and a verified twin
  // with the same bytecode donates its source, which declares
  // transfer(address,uint256); the proxies collide only through it. When
  // the twin's code changes, the logic's code hash loses its donor, and
  // the lap must re-run the proxies delegating to the logic, though
  // neither they nor the logic were touched.
  chain::Blockchain chain;
  const evm::Address deployer = evm::Address::from_label("twin.deployer");
  const evm::Address logic = chain.deploy_runtime(deployer, owner_only_contract());
  const evm::Address twin = chain.deploy_runtime(deployer, owner_only_contract());
  std::vector<core::SweepInput> inputs = transfer_proxies(chain, logic, 3);
  inputs.push_back({logic});
  inputs.push_back({twin});
  chain.mine_block();
  sourcemeta::SourceRepository sources;
  sourcemeta::SourceRecord declared;
  declared.contract_name = "DeclaredLogic";
  declared.functions.push_back({"transfer(address,uint256)"});
  sources.publish(twin, declared);

  core::AnalysisPipeline piped(chain, &sources);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("logic_donor.journal");
  store::DurableSweep sweep(piped, chain, &sources, sc);
  ASSERT_TRUE(sweep.incremental(inputs, {}).error.empty());
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(test_oracle::last_records(sc.journal_path)
                    .at(inputs[k].address)
                    .analysis.function_collision);
  }

  chain.set_code(twin, datagen::ContractFactory::token_contract(2));
  chain.mine_block();
  const store::DurableSweepResult lap = sweep.incremental(inputs, {twin});
  ASSERT_TRUE(lap.error.empty()) << lap.error;
  // The twin, the logic (its hash's donor moved) and the three proxies.
  EXPECT_EQ(lap.recomputed, inputs.size());

  const std::string cold = temp_journal("logic_donor_cold.journal");
  core::AnalysisPipeline cold_pipeline(chain, &sources);
  store::DurableSweepConfig cold_config;
  cold_config.journal_path = cold;
  ASSERT_TRUE(store::DurableSweep(cold_pipeline, chain, &sources, cold_config)
                  .run(inputs)
                  .error.empty());
  EXPECT_FALSE(test_oracle::last_records(cold)
                   .at(inputs[0].address)
                   .analysis.function_collision);
  test_oracle::expect_same_records(sc.journal_path, cold);
}

TEST(DurableSweep, RepresentativeUpgradeOnLapMatchesColdSweepRecords) {
  // Three transfer-proxy clones of a token logic; the front, whose verdict
  // its clones carry, upgrades to an owner()-only logic. The verdict's
  // emulation_steps counted the old logic's code (the probe executes the
  // delegated code), so the lap must not seed the group with it: every
  // record must equal a cold sweep's.
  chain::Blockchain chain;
  const evm::Address deployer = evm::Address::from_label("upgrade.deployer");
  const evm::Address token = chain.deploy_runtime(
      deployer, datagen::ContractFactory::token_contract(1));
  const evm::Address owner_only =
      chain.deploy_runtime(deployer, owner_only_contract());
  const std::vector<core::SweepInput> inputs =
      transfer_proxies(chain, token, 3);
  chain.mine_block();

  core::AnalysisPipeline piped(chain, nullptr);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("front_upgrade.journal");
  store::DurableSweep sweep(piped, chain, nullptr, sc);
  ASSERT_TRUE(sweep.incremental(inputs, {}).error.empty());

  chain.set_storage(inputs[0].address, datagen::ContractFactory::eip1967_slot(),
                    owner_only.to_word());
  chain.mine_block();
  const store::DurableSweepResult lap =
      sweep.incremental(inputs, {inputs[0].address});
  ASSERT_TRUE(lap.error.empty()) << lap.error;
  EXPECT_EQ(lap.recomputed, inputs.size());

  const std::string cold = temp_journal("front_upgrade_cold.journal");
  core::AnalysisPipeline cold_pipeline(chain, nullptr);
  store::DurableSweepConfig cold_config;
  cold_config.journal_path = cold;
  ASSERT_TRUE(store::DurableSweep(cold_pipeline, chain, nullptr, cold_config)
                  .run(inputs)
                  .error.empty());
  test_oracle::expect_same_records(sc.journal_path, cold);
}

TEST(DurableSweep, BootAfterDonorCodeChangeMatchesColdSweepRecords) {
  // The boot-time twin of DonorMoveOnLap: the §7.1 donor of the proxies'
  // code hash changes code while no service runs. A boot has no dirty set;
  // the records it replays name the donor they were analyzed with, so it
  // must re-run the members the donor left behind.
  chain::Blockchain chain;
  const evm::Address deployer = evm::Address::from_label("boot.donor.deployer");
  const evm::Address logic = chain.deploy_runtime(
      deployer, datagen::ContractFactory::token_contract(1));
  const evm::Bytes proxy_code = datagen::ContractFactory::eip1967_proxy();
  std::vector<core::SweepInput> inputs;
  for (int k = 0; k < 3; ++k) {
    const evm::Address p = chain.deploy_runtime(deployer, proxy_code);
    chain.set_storage(p, datagen::ContractFactory::eip1967_slot(),
                      logic.to_word());
    inputs.push_back({p});
  }
  chain.mine_block();
  const evm::Address donor = inputs[1].address;
  sourcemeta::SourceRepository sources;
  sourcemeta::SourceRecord declared;
  declared.contract_name = "DeclaredProxy";
  declared.functions.push_back({"transfer(address,uint256)"});
  sources.publish(donor, declared);

  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("boot_donor.journal");
  {
    core::AnalysisPipeline piped(chain, &sources);
    ASSERT_TRUE(store::DurableSweep(piped, chain, &sources, sc)
                    .incremental(inputs, {})
                    .error.empty());
  }
  for (const auto& input : inputs) {
    ASSERT_TRUE(test_oracle::last_records(sc.journal_path)
                    .at(input.address)
                    .analysis.function_collision);
  }

  chain.set_code(donor, datagen::ContractFactory::token_contract(2));
  chain.mine_block();
  core::AnalysisPipeline piped(chain, &sources);
  const store::DurableSweepResult boot =
      store::DurableSweep(piped, chain, &sources, sc).incremental(inputs, {});
  ASSERT_TRUE(boot.error.empty()) << boot.error;
  EXPECT_EQ(boot.recomputed, inputs.size());

  const std::string cold = temp_journal("boot_donor_cold.journal");
  core::AnalysisPipeline cold_pipeline(chain, &sources);
  store::DurableSweepConfig cold_config;
  cold_config.journal_path = cold;
  ASSERT_TRUE(store::DurableSweep(cold_pipeline, chain, &sources, cold_config)
                  .run(inputs)
                  .error.empty());
  EXPECT_FALSE(test_oracle::last_records(cold)
                   .at(inputs[0].address)
                   .analysis.function_collision);
  test_oracle::expect_same_records(sc.journal_path, cold);
}

TEST(DurableSweep, BootAfterLogicCodeChangeMatchesColdSweepRecords) {
  // The boot-time twin of LogicCodeChangeOnLap: the logic (not a sweep
  // input) is rewritten to a contract without transfer(address,uint256)
  // while no service runs. The records the boot replays name the logic's
  // code hash, so it must re-run the proxies that delegate to it.
  chain::Blockchain chain;
  const evm::Address logic = chain.deploy_runtime(
      evm::Address::from_label("boot.logic.deployer"),
      datagen::ContractFactory::token_contract(1));
  const std::vector<core::SweepInput> inputs =
      transfer_proxies(chain, logic, 3);
  chain.mine_block();

  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("boot_logic_code.journal");
  {
    core::AnalysisPipeline piped(chain, nullptr);
    ASSERT_TRUE(store::DurableSweep(piped, chain, nullptr, sc)
                    .incremental(inputs, {})
                    .error.empty());
  }
  for (const auto& input : inputs) {
    ASSERT_TRUE(test_oracle::last_records(sc.journal_path)
                    .at(input.address)
                    .analysis.function_collision);
  }

  chain.set_code(logic, owner_only_contract());
  chain.mine_block();
  core::AnalysisPipeline piped(chain, nullptr);
  const store::DurableSweepResult boot =
      store::DurableSweep(piped, chain, nullptr, sc).incremental(inputs, {});
  ASSERT_TRUE(boot.error.empty()) << boot.error;
  EXPECT_EQ(boot.recomputed, inputs.size());

  const std::string cold = temp_journal("boot_logic_code_cold.journal");
  core::AnalysisPipeline cold_pipeline(chain, nullptr);
  store::DurableSweepConfig cold_config;
  cold_config.journal_path = cold;
  ASSERT_TRUE(store::DurableSweep(cold_pipeline, chain, nullptr, cold_config)
                  .run(inputs)
                  .error.empty());
  EXPECT_FALSE(test_oracle::last_records(cold)
                   .at(inputs[0].address)
                   .analysis.function_collision);
  test_oracle::expect_same_records(sc.journal_path, cold);
}

TEST(DurableSweep, RestartAfterLapsReplaysEveryLapRecord) {
  // Laps append past what the boot wrote; their commit frames are what
  // makes them durable. A restarted process replays every lap
  // record and recomputes nothing.
  datagen::Population pop = make_population(600);
  const auto inputs = pop.sweep_inputs();
  const evm::U256 slot = datagen::ContractFactory::eip1967_slot();
  evm::Address new_logic;
  std::vector<evm::Address> proxies;
  for (const auto& c : pop.contracts) {
    if (c.archetype == datagen::Archetype::kToken && new_logic.is_zero()) {
      new_logic = c.address;
    }
    if (c.archetype == datagen::Archetype::kEip1967Proxy &&
        c.logic_truth != new_logic && proxies.size() < 3) {
      proxies.push_back(c.address);
    }
  }
  ASSERT_FALSE(new_logic.is_zero());
  ASSERT_EQ(proxies.size(), 3u);

  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("laps_restart.journal");
  sc.shard_size = 200;
  std::uint64_t boot_bytes = 0;
  {
    core::AnalysisPipeline piped(*pop.chain, &pop.sources);
    store::DurableSweep sweep(piped, *pop.chain, &pop.sources, sc);
    ASSERT_TRUE(sweep.incremental(inputs, {}).error.empty());
    boot_bytes = fs::file_size(sc.journal_path);
    for (const evm::Address& proxy : proxies) {
      pop.chain->set_storage(proxy, slot, new_logic.to_word());
      pop.chain->mine_block();
      const store::DurableSweepResult lap = sweep.incremental(inputs, {proxy});
      ASSERT_TRUE(lap.error.empty()) << lap.error;
      ASSERT_GE(lap.recomputed, 1u);
    }
  }
  // The laps' frames lie past what the boot wrote.
  EXPECT_GT(fs::file_size(sc.journal_path), boot_bytes);

  core::AnalysisPipeline piped(*pop.chain, &pop.sources);
  store::DurableSweep restarted(piped, *pop.chain, &pop.sources, sc);
  const store::DurableSweepResult boot = restarted.incremental(inputs, {});
  ASSERT_TRUE(boot.error.empty()) << boot.error;
  EXPECT_TRUE(boot.complete);
  EXPECT_EQ(boot.recomputed, 0u);
  EXPECT_EQ(boot.replayed, inputs.size());

  const std::string cold = temp_journal("laps_restart_cold.journal");
  cold_sweep(pop, inputs, cold);
  // Records the boot kept were computed at earlier blocks than the cold
  // sweep's.
  test_oracle::expect_same_records(sc.journal_path, cold,
                                   /*same_height=*/false);
}

TEST(DurableSweep, CloneFamilyLargerThanAShardRunsInChunks) {
  // A clone family several shards large: a sweep caps every shard near
  // shard_size, journals each member once, and writes the records of a
  // single-shard sweep, also when it is stopped between chunks and booted.
  datagen::Population pop = make_population(300);
  const evm::U256 slot = datagen::ContractFactory::eip1967_slot();
  evm::Address logic;
  for (const auto& c : pop.contracts) {
    if (c.archetype == datagen::Archetype::kToken) {
      logic = c.address;
      break;
    }
  }
  ASSERT_FALSE(logic.is_zero());
  auto inputs = pop.sweep_inputs();
  const evm::Address deployer = evm::Address::from_label("family-deployer");
  constexpr std::size_t kFamily = 260;
  for (std::size_t i = 0; i < kFamily; ++i) {
    const evm::Address proxy = pop.chain->deploy_runtime(
        deployer, datagen::ContractFactory::eip1967_proxy());
    pop.chain->set_storage(proxy, slot, logic.to_word());
    inputs.push_back({.address = proxy});
  }
  pop.chain->mine_block();

  const std::string whole = temp_journal("family_whole.journal");
  {
    core::AnalysisPipeline pipeline(*pop.chain, &pop.sources);
    store::DurableSweepConfig sc;
    sc.journal_path = whole;
    sc.shard_size = 0;
    ASSERT_TRUE(store::DurableSweep(pipeline, *pop.chain, &pop.sources, sc)
                    .run(inputs)
                    .complete);
  }

  constexpr std::size_t kShard = 80;
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("family_chunks.journal");
  sc.shard_size = kShard;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const store::DurableSweepResult result =
      store::DurableSweep(pipeline, *pop.chain, &pop.sources, sc).run(inputs);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.recomputed, inputs.size());
  test_oracle::expect_same_records(sc.journal_path, whole);

  const auto replay = store::read_journal(sc.journal_path);
  ASSERT_TRUE(replay.has_value());
  std::size_t contract_frames = 0;
  std::uint64_t largest_shard = 0;
  for (const store::JournalFrame& frame : replay->frames) {
    if (frame.type == store::RecordType::kContract) ++contract_frames;
    if (frame.type != store::RecordType::kShardCommit) continue;
    const auto commit = store::decode_shard_commit(frame.payload);
    ASSERT_TRUE(commit.has_value());
    largest_shard = std::max(largest_shard, commit->contracts);
  }
  EXPECT_EQ(contract_frames, inputs.size());
  // An open shard plus one chunk at most, far below the family's size.
  EXPECT_LT(largest_shard, 2 * kShard);

  for (const std::size_t stop : {2u, 3u, 4u}) {
    const std::string journal =
        temp_journal("family_stop" + std::to_string(stop) + ".journal");
    store::DurableSweepConfig stopped = sc;
    stopped.journal_path = journal;
    stopped.max_shards = stop;
    core::AnalysisPipeline first(*pop.chain, &pop.sources);
    ASSERT_FALSE(store::DurableSweep(first, *pop.chain, &pop.sources, stopped)
                     .run(inputs)
                     .complete);
    stopped.max_shards = 0;
    core::AnalysisPipeline second(*pop.chain, &pop.sources);
    const store::DurableSweepResult boot =
        store::DurableSweep(second, *pop.chain, &pop.sources, stopped)
            .incremental(inputs, {});
    ASSERT_TRUE(boot.error.empty()) << boot.error;
    EXPECT_EQ(boot.replayed + boot.recomputed, inputs.size());
    test_oracle::expect_same_records(journal, whole);
  }
}

TEST(DurableSweep, PairMemoCountsCoverOneRunOnly) {
  // LandscapeStats::cache counts the pair memo of the sweep that produced
  // the stats, not the pipeline's lifetime: two identical cold sweeps on
  // one pipeline report the same hits and misses, and so do two identical
  // monolithic runs summarized one after the other.
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();
  core::AnalysisPipeline piped(*pop.chain, &pop.sources);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> sweeps;
  for (const char* name : {"memo_scope_a.journal", "memo_scope_b.journal"}) {
    store::DurableSweepConfig sc;
    sc.journal_path = temp_journal(name);
    sc.shard_size = 200;
    const store::DurableSweepResult r =
        store::DurableSweep(piped, *pop.chain, &pop.sources, sc).run(inputs);
    ASSERT_TRUE(r.error.empty()) << r.error;
    sweeps.emplace_back(r.stats.cache.hits(), r.stats.cache.misses());
  }
  EXPECT_GT(sweeps[0].first, 0u);
  EXPECT_GT(sweeps[0].second, 0u);
  EXPECT_EQ(sweeps[1], sweeps[0]);

  const auto first = piped.summarize(piped.run(inputs)).cache;
  const auto second = piped.summarize(piped.run(inputs)).cache;
  EXPECT_GT(first.misses(), 0u);
  EXPECT_EQ(second.hits(), first.hits());
  EXPECT_EQ(second.misses(), first.misses());
}

}  // namespace
