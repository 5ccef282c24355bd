// The end-to-end analysis pipeline: dedup semantics, per-contract verdicts
// against ground truth, collision propagation, landscape aggregation, and
// thread-count invariance.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "chain/archive_node.h"
#include "chain/fault_injection.h"
#include "chain/blockchain.h"
#include "core/pipeline.h"
#include "crypto/keccak.h"
#include "datagen/contract_factory.h"
#include "datagen/population.h"

namespace {

using namespace proxion;
using namespace proxion::core;
using datagen::Archetype;
using datagen::DeployedContract;
using datagen::Population;
using datagen::PopulationGenerator;
using datagen::PopulationSpec;

/// Counts eth_getCode attempts per address and fails the first attempt at
/// each address in `fail_once` with a transient error (a fault that heals
/// per key). Storage reads pass straight through.
class CodeFetchCounter final : public chain::IArchiveNode {
 public:
  CodeFetchCounter(const chain::IArchiveNode& inner,
                   std::unordered_set<Address, evm::AddressHasher> fail_once)
      : inner_(inner), fail_once_(std::move(fail_once)) {}

  U256 get_storage_at(const Address& account, const U256& slot,
                      std::uint64_t block) const override {
    return inner_.get_storage_at(account, slot, block);
  }
  std::vector<U256> get_storage_at_many(
      std::span<const chain::StorageQuery> queries) const override {
    return inner_.get_storage_at_many(queries);
  }
  evm::Bytes get_code(const Address& account) const override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (attempts_[account]++ == 0 && fail_once_.contains(account)) {
        throw chain::RpcError(chain::RpcErrorKind::kTransient,
                              "injected first-attempt fault");
      }
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

  unsigned attempts(const Address& account) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = attempts_.find(account);
    return it == attempts_.end() ? 0 : it->second;
  }
  std::size_t addresses_fetched() const {
    std::lock_guard<std::mutex> lk(mu_);
    return attempts_.size();
  }

 private:
  const chain::IArchiveNode& inner_;
  const std::unordered_set<Address, evm::AddressHasher> fail_once_;
  mutable std::mutex mu_;
  mutable std::unordered_map<Address, unsigned, evm::AddressHasher> attempts_;
};

/// Counts the storage reads that reach the backend: batches, scalar calls
/// and queries (scalar calls plus batch elements).
class StorageReadCounter final : public chain::IArchiveNode {
 public:
  explicit StorageReadCounter(const chain::IArchiveNode& inner)
      : inner_(inner) {}

  U256 get_storage_at(const Address& account, const U256& slot,
                      std::uint64_t block) const override {
    scalar_calls.fetch_add(1);
    queries.fetch_add(1);
    return inner_.get_storage_at(account, slot, block);
  }
  std::vector<U256> get_storage_at_many(
      std::span<const chain::StorageQuery> batch) const override {
    batches.fetch_add(1);
    queries.fetch_add(batch.size());
    return inner_.get_storage_at_many(batch);
  }
  evm::Bytes get_code(const Address& account) const override {
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

  mutable std::atomic<std::uint64_t> batches{0};
  mutable std::atomic<std::uint64_t> scalar_calls{0};
  mutable std::atomic<std::uint64_t> queries{0};

 private:
  const chain::IArchiveNode& inner_;
};

/// Fails every eth_getCode for the addresses in `down` with a terminal
/// error that names the address, and counts the code requests per address.
/// Storage reads pass straight through.
class CodeOutage final : public chain::IArchiveNode {
 public:
  CodeOutage(const chain::IArchiveNode& inner,
             std::unordered_set<Address, evm::AddressHasher> down)
      : inner_(inner), down_(std::move(down)) {}

  U256 get_storage_at(const Address& account, const U256& slot,
                      std::uint64_t block) const override {
    return inner_.get_storage_at(account, slot, block);
  }
  std::vector<U256> get_storage_at_many(
      std::span<const chain::StorageQuery> queries) const override {
    return inner_.get_storage_at_many(queries);
  }
  evm::Bytes get_code(const Address& account) const override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++attempts_[account];
    }
    if (down_.contains(account)) {
      throw chain::RpcError(chain::RpcErrorKind::kExhausted,
                            "code outage at " + account.to_hex());
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

  unsigned attempts(const Address& account) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = attempts_.find(account);
    return it == attempts_.end() ? 0 : it->second;
  }

 private:
  const chain::IArchiveNode& inner_;
  const std::unordered_set<Address, evm::AddressHasher> down_;
  mutable std::mutex mu_;
  mutable std::unordered_map<Address, unsigned, evm::AddressHasher> attempts_;
};

/// Every input's code hash, as the chain stored it (what a durable sweep
/// passes to run()).
std::vector<crypto::Hash256> code_hashes_of(
    const chain::Blockchain& chain, const std::vector<SweepInput>& inputs) {
  std::vector<crypto::Hash256> out;
  out.reserve(inputs.size());
  for (const SweepInput& in : inputs) out.push_back(chain.code_hash(in.address));
  return out;
}

/// Input indices, in input order, of the largest clone family of emulated
/// proxies: their verdicts carry the representative's address-seeded probe
/// selector, so a representative other than the first member would show.
std::vector<std::size_t> largest_emulated_family(
    const std::vector<ContractAnalysis>& reports,
    const std::vector<crypto::Hash256>& hashes) {
  std::unordered_map<crypto::Hash256, std::vector<std::size_t>,
                     crypto::Hash256Hasher>
      families;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports[i].proxy.is_proxy() && reports[i].proxy.probe_selector != 0) {
      families[hashes[i]].push_back(i);
    }
  }
  std::vector<std::size_t> largest;
  for (auto& [hash, members] : families) {
    if (members.size() > largest.size() ||
        (members.size() == largest.size() && members < largest)) {
      largest = std::move(members);
    }
  }
  return largest;
}

class PipelineTest : public ::testing::Test {
 protected:
  static Population make_population(std::uint32_t n) {
    PopulationSpec spec;
    spec.total_contracts = n;
    return PopulationGenerator().generate(spec);
  }
};

TEST_F(PipelineTest, VerdictsMatchGroundTruth) {
  Population pop = make_population(800);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());
  ASSERT_EQ(reports.size(), pop.contracts.size());

  int mismatches = 0;
  int diamonds_missed = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DeployedContract& truth = pop.contracts[i];
    const bool detected = reports[i].proxy.is_proxy();
    if (truth.archetype == Archetype::kDiamondProxy) {
      // §8.1: diamonds are the documented miss.
      if (!detected) ++diamonds_missed;
      continue;
    }
    if (detected != truth.is_proxy_truth) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GE(diamonds_missed, 0);
}

TEST_F(PipelineTest, DedupMarksClonesAndPreservesVerdicts) {
  Population pop = make_population(600);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());

  std::size_t deduplicated = 0;
  for (const auto& r : reports) {
    if (r.deduplicated) ++deduplicated;
  }
  // The clone-heavy population must reuse most verdicts (§6.1's speedup).
  EXPECT_GT(deduplicated, reports.size() / 4);
}

TEST_F(PipelineTest, DedupOffProducesSameVerdicts) {
  Population pop = make_population(250);
  PipelineConfig with_dedup;
  PipelineConfig without_dedup;
  without_dedup.dedup_by_code_hash = false;

  AnalysisPipeline p1(*pop.chain, &pop.sources, with_dedup);
  AnalysisPipeline p2(*pop.chain, &pop.sources, without_dedup);
  const auto r1 = p1.run(pop.sweep_inputs());
  const auto r2 = p2.run(pop.sweep_inputs());
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].proxy.is_proxy(), r2[i].proxy.is_proxy());
    EXPECT_EQ(r1[i].proxy.standard, r2[i].proxy.standard);
  }
}

TEST_F(PipelineTest, CloneLogicAddressesAreResolvedPerContract) {
  // Wyvern clones share bytecode but each stores its own logic pointer; the
  // dedup path must still report the correct per-contract logic address.
  Population pop = make_population(600);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());

  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DeployedContract& truth = pop.contracts[i];
    if (truth.archetype != Archetype::kWyvernCloneProxy) continue;
    EXPECT_EQ(reports[i].proxy.logic_address, truth.logic_truth);
  }
}

TEST_F(PipelineTest, CollisionsDetectedWhereInjected) {
  Population pop = make_population(1'000);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());

  int fn_truth = 0, fn_found = 0, st_truth = 0, st_found = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DeployedContract& truth = pop.contracts[i];
    if (truth.function_collision_truth) {
      ++fn_truth;
      if (reports[i].function_collision) ++fn_found;
    }
    if (truth.storage_collision_truth) {
      ++st_truth;
      if (reports[i].storage_collision) ++st_found;
    }
  }
  EXPECT_GT(fn_truth, 0);
  EXPECT_EQ(fn_found, fn_truth);  // every injected function collision found
  if (st_truth > 0) {
    EXPECT_EQ(st_found, st_truth);
  }
}

TEST_F(PipelineTest, SummaryAggregatesConsistently) {
  Population pop = make_population(800);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());
  LandscapeStats stats = pipeline.summarize(reports);

  EXPECT_EQ(stats.total_contracts, reports.size());
  EXPECT_GT(stats.proxies, 0u);
  EXPECT_LT(stats.proxies, stats.total_contracts);
  EXPECT_GT(stats.hidden_proxies, 0u);
  EXPECT_LE(stats.unique_proxy_codehashes, stats.proxies);

  std::uint64_t by_standard_sum = 0;
  for (const auto& [standard, count] : stats.by_standard) {
    by_standard_sum += count;
  }
  EXPECT_EQ(by_standard_sum, stats.proxies);

  std::uint64_t by_year_sum = 0;
  for (const auto& [year, count] : stats.proxies_by_year) {
    by_year_sum += count;
  }
  EXPECT_EQ(by_year_sum, stats.proxies);

  // EIP-1167 dominates the standard mix (Table 4).
  EXPECT_GT(stats.by_standard[ProxyStandard::kEip1167],
            stats.proxies / 2);
}

TEST_F(PipelineTest, ThreadCountDoesNotChangeResults) {
  Population pop = make_population(300);
  PipelineConfig single;
  single.threads = 1;
  PipelineConfig many;
  many.threads = 8;

  AnalysisPipeline p1(*pop.chain, &pop.sources, single);
  AnalysisPipeline p8(*pop.chain, &pop.sources, many);
  const auto r1 = p1.run(pop.sweep_inputs());
  const auto r8 = p8.run(pop.sweep_inputs());
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].proxy.is_proxy(), r8[i].proxy.is_proxy());
    EXPECT_EQ(r1[i].function_collision, r8[i].function_collision);
    EXPECT_EQ(r1[i].storage_collision, r8[i].storage_collision);
    EXPECT_EQ(r1[i].logic_history.logic_addresses,
              r8[i].logic_history.logic_addresses);
  }
}

TEST_F(PipelineTest, ThreadCountProducesByteIdenticalAnalyses) {
  // Stronger than the field-wise check above: the entire ContractAnalysis
  // (proxy report, logic history, collision findings, dedup flags) must be
  // byte-for-byte identical regardless of worker count.
  Population pop = make_population(400);
  PipelineConfig single;
  single.threads = 1;
  PipelineConfig many;
  many.threads = 8;

  AnalysisPipeline p1(*pop.chain, &pop.sources, single);
  AnalysisPipeline p8(*pop.chain, &pop.sources, many);
  const auto r1 = p1.run(pop.sweep_inputs());
  const auto r8 = p8.run(pop.sweep_inputs());
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_TRUE(r1[i] == r8[i]) << "contract " << i << " diverged";
  }
}

TEST_F(PipelineTest, SummaryReportsPhaseTimingsAndCacheStats) {
  Population pop = make_population(300);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());
  const LandscapeStats stats = pipeline.summarize(reports);

  EXPECT_GE(stats.phase_fetch_ms, 0.0);
  EXPECT_GE(stats.phase_proxy_ms, 0.0);
  EXPECT_GE(stats.phase_pairs_ms, 0.0);
  // The clone-heavy population must produce pair-level reuse (every
  // proxy/logic pair computed at most once).
  EXPECT_GT(stats.cache.misses(), 0u);
  EXPECT_GT(stats.cache.hits(), 0u);
}

TEST_F(PipelineTest, RunCountsLiveInTheSummaryOnly) {
  // Per-run counts have one source, LandscapeStats: the pipeline registry
  // carries no gauge of its own for them (under DurableSweep such a gauge
  // would describe only the last shard). Its gauges are the lifetime
  // resilience totals.
  Population pop = make_population(600);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());
  const LandscapeStats stats = pipeline.summarize(reports);
  for (const auto& r : reports) ASSERT_FALSE(r.error);

  for (const auto& [name, value] : pipeline.registry().snapshot().gauges) {
    EXPECT_EQ(name.rfind("sweep.rpc.", 0), 0u) << name;
  }
  // The population exercises each count.
  EXPECT_GT(stats.cache.hits(), 0u);
  EXPECT_GT(stats.cache.misses(), 0u);
  EXPECT_GT(stats.layout_inferred, 0u);
  EXPECT_GT(stats.static_skipped_absent, 0u);
}

TEST_F(PipelineTest, EachDistinctLogicBlobIsHashedOnce) {
  // M clones of one proxy blob all pointing at one logic contract: the
  // marginal cost of an extra clone must be ONE keccak (its Phase 0 code
  // hash) — the seed also hashed the logic blob once per pair (twice: once
  // for the function detector, once for the storage detector).
  using datagen::ContractFactory;

  auto build = [](std::uint32_t proxies) {
    auto chain = std::make_unique<chain::Blockchain>();
    const Address deployer = Address::from_label("keccak-count-deployer");
    const Address logic =
        chain->deploy_runtime(deployer, ContractFactory::token_contract(99));
    std::vector<SweepInput> inputs;
    for (std::uint32_t i = 0; i < proxies; ++i) {
      const Address p =
          chain->deploy_runtime(deployer, ContractFactory::eip1967_proxy());
      chain->set_storage(p, ContractFactory::eip1967_slot(), logic.to_word());
      inputs.push_back({p, 2020, false, false});
    }
    return std::pair{std::move(chain), std::move(inputs)};
  };

  auto run_counting = [](chain::Blockchain& chain,
                         const std::vector<SweepInput>& inputs) {
    AnalysisPipeline pipeline(chain, nullptr);
    const std::uint64_t before = crypto::keccak_invocations();
    const auto reports = pipeline.run(inputs);
    const std::uint64_t spent = crypto::keccak_invocations() - before;
    EXPECT_EQ(reports.size(), inputs.size());
    for (const auto& r : reports) EXPECT_TRUE(r.proxy.is_proxy());
    return spent;
  };

  constexpr std::uint32_t kSmall = 4, kLarge = 36;
  auto [chain_small, inputs_small] = build(kSmall);
  auto [chain_large, inputs_large] = build(kLarge);
  const std::uint64_t small = run_counting(*chain_small, inputs_small);
  const std::uint64_t large = run_counting(*chain_large, inputs_large);

  // Both sweeps see the same two unique blobs, so per-blob work (probe
  // emulation, artifact extraction, the one logic-blob hash) cancels in the
  // difference; what remains is the per-contract cost.
  ASSERT_GT(large, small);
  const std::uint64_t marginal = (large - small) / (kLarge - kSmall);
  EXPECT_GE(marginal, 1u);  // Phase 0 must hash every contract
  EXPECT_LE(marginal, 2u) << "an extra clone re-hashed shared blobs";
}

TEST_F(PipelineTest, EachDistinctAddressIsFetchedOnce) {
  // Logic contracts are sweep inputs too, and every tenth input appears
  // twice: still one eth_getCode per distinct address, whether it was asked
  // for as an input, as a logic target, or as both.
  Population pop = make_population(600);
  std::vector<SweepInput> inputs = pop.sweep_inputs();
  const std::size_t originals = inputs.size();
  for (std::size_t i = 0; i < originals; i += 10) inputs.push_back(inputs[i]);

  chain::ArchiveNode node(*pop.chain);
  PipelineConfig cfg;
  cfg.archive_node = &node;
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, cfg);
  const auto reports = pipeline.run(inputs);

  std::unordered_set<Address, evm::AddressHasher> distinct;
  for (const SweepInput& in : inputs) distinct.insert(in.address);
  const std::size_t input_addresses = distinct.size();
  std::size_t logic_inputs = 0;
  for (const ContractAnalysis& r : reports) {
    ASSERT_FALSE(r.error) << r.error->detail;
    for (const Address& logic : r.logic_history.logic_addresses) {
      if (!distinct.insert(logic).second) ++logic_inputs;
    }
  }
  ASSERT_EQ(input_addresses, originals);
  ASSERT_GT(logic_inputs, 0u) << "no logic contract is also an input";
  EXPECT_EQ(node.get_code_calls(), distinct.size());

  // The duplicates carry their first occurrence's analysis.
  for (std::size_t j = originals; j < inputs.size(); ++j) {
    const ContractAnalysis& dup = reports[j];
    const ContractAnalysis& first = reports[(j - originals) * 10];
    EXPECT_EQ(dup.address, first.address);
    EXPECT_EQ(dup.proxy.verdict, first.proxy.verdict);
    EXPECT_EQ(dup.logic_history.logic_addresses,
              first.logic_history.logic_addresses);
  }
}

TEST_F(PipelineTest, FailedInputFetchIsRetriedOnceForItsProxies) {
  // A logic contract's own fetch fails (retries off, so the fault
  // quarantines it). The proxies delegating to it retry that fetch exactly
  // once between them and then share the healed blob; nothing else is
  // fetched twice.
  using datagen::ContractFactory;
  chain::Blockchain chain;
  const Address deployer = Address::from_label("retry-once-deployer");
  const Address shared_logic =
      chain.deploy_runtime(deployer, ContractFactory::token_contract(7));
  const Address outside_logic =
      chain.deploy_runtime(deployer, ContractFactory::token_contract(8));
  std::vector<SweepInput> inputs{{shared_logic, 2020, false, false}};
  std::vector<Address> proxies;
  for (int i = 0; i < 8; ++i) {
    const Address p =
        chain.deploy_runtime(deployer, ContractFactory::eip1967_proxy());
    const Address& logic = i < 6 ? shared_logic : outside_logic;
    chain.set_storage(p, ContractFactory::eip1967_slot(), logic.to_word());
    proxies.push_back(p);
    inputs.push_back({p, 2021, false, false});
  }

  chain::ArchiveNode node(chain);
  CodeFetchCounter counter(node, {shared_logic});
  PipelineConfig cfg;
  cfg.archive_node = &counter;
  cfg.enable_retries = false;
  cfg.threads = 4;
  AnalysisPipeline pipeline(chain, nullptr, cfg);
  const auto reports = pipeline.run(inputs);

  ASSERT_TRUE(reports[0].error);
  EXPECT_EQ(reports[0].error->phase, "fetch");
  for (std::size_t i = 1; i < reports.size(); ++i) {
    ASSERT_FALSE(reports[i].error) << reports[i].error->detail;
    ASSERT_TRUE(reports[i].proxy.is_proxy());
  }
  EXPECT_EQ(counter.attempts(shared_logic), 2u);
  EXPECT_EQ(counter.attempts(outside_logic), 1u);
  for (const Address& p : proxies) EXPECT_EQ(counter.attempts(p), 1u);
  EXPECT_EQ(counter.addresses_fetched(), 2 + proxies.size());
}

TEST_F(PipelineTest, FailedOutsideLogicFetchIsOneDomain) {
  // A logic contract outside the inputs is fetched once per run, and its
  // failure is one outcome that every proxy delegating to it shares: with
  // retries off, the first attempt's fault quarantines both proxies with
  // the same error, whichever worker reaches the logic first.
  using datagen::ContractFactory;
  chain::Blockchain chain;
  const Address deployer = Address::from_label("one-domain-deployer");
  const Address logic =
      chain.deploy_runtime(deployer, ContractFactory::token_contract(7));
  std::vector<SweepInput> inputs;
  for (int i = 0; i < 2; ++i) {
    const Address p =
        chain.deploy_runtime(deployer, ContractFactory::eip1967_proxy());
    chain.set_storage(p, ContractFactory::eip1967_slot(), logic.to_word());
    inputs.push_back({p, 2021, false, false});
  }

  chain::ArchiveNode node(chain);
  CodeFetchCounter counter(node, {logic});
  PipelineConfig cfg;
  cfg.archive_node = &counter;
  cfg.enable_retries = false;
  cfg.threads = 4;
  const auto reports = AnalysisPipeline(chain, nullptr, cfg).run(inputs);

  EXPECT_EQ(counter.attempts(logic), 1u);
  ASSERT_EQ(reports.size(), 2u);
  for (const ContractAnalysis& r : reports) {
    ASSERT_TRUE(r.error) << r.address.to_hex();
    EXPECT_EQ(r.error->phase, "pairs");
    EXPECT_EQ(r.error->kind, ErrorKind::kRpcTransient);
    EXPECT_EQ(r.logic_history.logic_addresses, std::vector<Address>{logic});
  }
  EXPECT_EQ(reports[0].error, reports[1].error);
}

TEST_F(PipelineTest, EachDistinctPairIsComputedOnce) {
  // Phase B checks each distinct (proxy code hash, logic code hash) pair
  // once, and every contract that reaches the pair reuses its outcome: one
  // collision-check span per distinct pair, and the pair counts are the
  // plan's (misses = pairs computed, hits + misses = pair lookups).
  Population pop = make_population(600);
  PipelineConfig cfg;
  cfg.threads = 4;
  cfg.telemetry.live_spans = true;
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, cfg);
  const auto reports = pipeline.run(pop.sweep_inputs());
  const LandscapeStats stats = pipeline.summarize(reports);
  ASSERT_EQ(stats.trace_spans_dropped, 0u);

  std::size_t checks = 0;
  for (const obs::SpanRecord& s : pipeline.tracer()->spans()) {
    checks += std::string_view(s.name) == "collision-check";
  }
  std::set<std::pair<crypto::Hash256, crypto::Hash256>> pairs;
  std::uint64_t lookups = 0;
  for (const ContractAnalysis& r : reports) {
    ASSERT_FALSE(r.error) << r.error->detail;
    for (const Address& logic : r.logic_history.logic_addresses) {
      const crypto::Hash256 logic_hash = pop.chain->code_hash(logic);
      if (logic_hash == evm::kEmptyCodeHash) continue;
      pairs.emplace(pop.chain->code_hash(r.address), logic_hash);
      ++lookups;
    }
  }
  ASSERT_GT(lookups, pairs.size()) << "no pair is shared";
  EXPECT_EQ(checks, pairs.size());
  EXPECT_EQ(stats.cache.misses(), pairs.size());
  EXPECT_EQ(stats.cache.hits() + stats.cache.misses(), lookups);
}

TEST_F(PipelineTest, EachDistinctCodeHashIsFetchedOnce) {
  // Given the inputs' code hashes, code is content-addressed: one
  // eth_getCode per distinct hash, from its first input, plus one per
  // logic address outside the inputs. Half the logic contracts are dropped
  // from the inputs, and every tenth input appears twice.
  Population pop = make_population(600);
  std::unordered_set<Address, evm::AddressHasher> dropped;
  {
    std::unordered_set<Address, evm::AddressHasher> logic;
    for (const ContractAnalysis& r :
         AnalysisPipeline(*pop.chain, &pop.sources).run(pop.sweep_inputs())) {
      for (const Address& a : r.logic_history.logic_addresses) {
        if (logic.insert(a).second && logic.size() % 2 == 0) dropped.insert(a);
      }
    }
  }
  std::vector<SweepInput> inputs;
  for (const SweepInput& in : pop.sweep_inputs()) {
    if (!dropped.contains(in.address)) inputs.push_back(in);
  }
  const std::size_t originals = inputs.size();
  for (std::size_t i = 0; i < originals; i += 10) inputs.push_back(inputs[i]);
  const std::vector<crypto::Hash256> hashes = code_hashes_of(*pop.chain, inputs);

  chain::ArchiveNode node(*pop.chain);
  PipelineConfig cfg;
  cfg.archive_node = &node;
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, cfg);
  const auto reports = pipeline.run(inputs, {}, nullptr, hashes);

  const std::unordered_set<crypto::Hash256, crypto::Hash256Hasher> distinct(
      hashes.begin(), hashes.end());
  std::unordered_set<Address, evm::AddressHasher> input_addresses;
  for (const SweepInput& in : inputs) input_addresses.insert(in.address);
  std::unordered_set<Address, evm::AddressHasher> outside;
  for (const ContractAnalysis& r : reports) {
    ASSERT_FALSE(r.error) << r.error->detail;
    for (const Address& logic : r.logic_history.logic_addresses) {
      if (!input_addresses.contains(logic)) outside.insert(logic);
    }
  }
  ASSERT_LT(distinct.size(), originals / 2) << "no clone skew";
  ASSERT_GT(outside.size(), 0u) << "no logic contract outside the inputs";
  EXPECT_EQ(node.get_code_calls(), distinct.size() + outside.size());

  // Sharing a blob across addresses changes no report.
  const auto by_address = AnalysisPipeline(*pop.chain, &pop.sources).run(inputs);
  ASSERT_EQ(by_address.size(), reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_TRUE(reports[i] == by_address[i]) << "contract " << i;
  }
}

TEST_F(PipelineTest, OutageOnOneCloneAddressLeavesItsReportUnchanged) {
  // The fetch's failure domain is the code hash. The first member of an
  // emulated clone family is unreachable: the family's other addresses are
  // asked once each, the first to answer serves the hash, and every report
  // (the unreachable representative's included, emulated at its own
  // address) equals the fault-free one.
  Population pop = make_population(600);
  const auto inputs = pop.sweep_inputs();
  const std::vector<crypto::Hash256> hashes = code_hashes_of(*pop.chain, inputs);
  const auto clean =
      AnalysisPipeline(*pop.chain, &pop.sources).run(inputs, {}, nullptr, hashes);
  const std::vector<std::size_t> family = largest_emulated_family(clean, hashes);
  ASSERT_GE(family.size(), 3u);
  const Address victim = inputs[family.front()].address;

  chain::ArchiveNode node(*pop.chain);
  CodeOutage outage(node, {victim});
  PipelineConfig cfg;
  cfg.archive_node = &outage;
  cfg.threads = 4;
  const auto reports = AnalysisPipeline(*pop.chain, &pop.sources, cfg)
                           .run(inputs, {}, nullptr, hashes);

  for (const std::size_t i : family) {
    EXPECT_EQ(outage.attempts(inputs[i].address), 1u) << "member " << i;
  }
  ASSERT_EQ(reports.size(), clean.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_TRUE(reports[i] == clean[i]) << "contract " << i;
  }
}

TEST_F(PipelineTest, OutageOnEveryAddressOfAHashQuarantinesEachInFetch) {
  // No address of the family returns code: each member is quarantined in
  // the fetch with the error of its own request, and nothing else moves.
  Population pop = make_population(600);
  const auto inputs = pop.sweep_inputs();
  const std::vector<crypto::Hash256> hashes = code_hashes_of(*pop.chain, inputs);
  const auto clean =
      AnalysisPipeline(*pop.chain, &pop.sources).run(inputs, {}, nullptr, hashes);
  const std::vector<std::size_t> family = largest_emulated_family(clean, hashes);
  ASSERT_GE(family.size(), 3u);
  std::unordered_set<Address, evm::AddressHasher> down;
  for (const std::size_t i : family) down.insert(inputs[i].address);

  chain::ArchiveNode node(*pop.chain);
  CodeOutage outage(node, down);
  PipelineConfig cfg;
  cfg.archive_node = &outage;
  cfg.threads = 4;
  const auto reports = AnalysisPipeline(*pop.chain, &pop.sources, cfg)
                           .run(inputs, {}, nullptr, hashes);

  ASSERT_EQ(reports.size(), clean.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Address& a = inputs[i].address;
    if (!down.contains(a)) {
      EXPECT_TRUE(reports[i] == clean[i]) << "contract " << i;
      continue;
    }
    EXPECT_EQ(outage.attempts(a), 1u);
    ASSERT_TRUE(reports[i].error) << "contract " << i;
    EXPECT_EQ(reports[i].error->phase, "fetch");
    EXPECT_EQ(reports[i].error->kind, ErrorKind::kRpcExhausted);
    EXPECT_NE(reports[i].error->detail.find(a.to_hex()), std::string::npos)
        << reports[i].error->detail;
  }
}

TEST_F(PipelineTest, ThreadCountIsByteIdenticalUnderCodeFaults) {
  // Which address serves a hash whose first fetch failed is decided in
  // input order, not by which worker finished first: with permanent
  // faults on code and storage reads, one worker and eight produce the
  // same reports byte for byte.
  Population pop = make_population(400);
  const auto inputs = pop.sweep_inputs();
  const std::vector<crypto::Hash256> hashes = code_hashes_of(*pop.chain, inputs);
  chain::ArchiveNode node(*pop.chain);
  chain::FaultProfile profile;
  profile.seed = 23;
  profile.transient_rate = 0.25;
  profile.failures_per_fault = 1'000'000;

  auto run_with = [&](unsigned threads) {
    chain::FaultInjectingArchiveNode faulty(node, profile);
    PipelineConfig cfg;
    cfg.archive_node = &faulty;
    cfg.enable_retries = false;
    cfg.threads = threads;
    return AnalysisPipeline(*pop.chain, &pop.sources, cfg)
        .run(inputs, {}, nullptr, hashes);
  };
  const auto r1 = run_with(1);
  const auto r8 = run_with(8);

  // Both outcomes of a failed first fetch occur: a hash that another
  // address served, and inputs quarantined in the fetch. (Whether a
  // request faults is a pure function of the seed and the request.)
  chain::FaultInjectingArchiveNode probe(node, profile);
  std::unordered_set<crypto::Hash256, crypto::Hash256Hasher> seen;
  std::size_t served_by_another = 0;
  std::size_t fetch_quarantined = 0;
  for (std::size_t i = 0; i < r1.size(); ++i) {
    fetch_quarantined += r1[i].error && r1[i].error->phase == "fetch";
    if (!seen.insert(hashes[i]).second || r1[i].error) continue;
    try {
      probe.get_code(inputs[i].address);
    } catch (const chain::RpcError&) {
      ++served_by_another;
    }
  }
  ASSERT_GT(served_by_another, 0u);
  ASSERT_GT(fetch_quarantined, 0u);
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_TRUE(r1[i] == r8[i]) << "contract " << i << " diverged";
  }
}

TEST_F(PipelineTest, LogicSearchSharesOneBatchPerDepth) {
  // Algorithm 1 runs in lockstep over every proxy of a run: each search
  // depth is one archive batch across all the slot proxies, so the run's
  // batches are bounded by the depth of one search, not by the number of
  // proxies.
  Population pop = make_population(400);
  chain::ArchiveNode inner(*pop.chain);
  StorageReadCounter counter(inner);
  PipelineConfig cfg;
  cfg.archive_node = &counter;
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, cfg);
  const auto reports = pipeline.run(pop.sweep_inputs());

  std::uint64_t api_calls = 0;
  std::uint64_t slot_proxies = 0;
  for (const ContractAnalysis& r : reports) {
    ASSERT_FALSE(r.quarantined());
    api_calls += r.logic_history.api_calls;
    if (r.proxy.is_proxy() &&
        r.proxy.logic_source == LogicSource::kStorageSlot) {
      ++slot_proxies;
    }
  }
  const std::uint64_t height = pop.chain->height();
  // ceil(log2(height + 1)) depths of splitting, plus the first probe.
  const std::uint64_t depths =
      static_cast<std::uint64_t>(std::bit_width(height)) + 1;
  // A search per proxy would make at least one batch per slot proxy.
  ASSERT_GT(slot_proxies, depths);
  EXPECT_LE(counter.batches.load(), depths);
  EXPECT_EQ(counter.scalar_calls.load(), 0u);
  EXPECT_EQ(counter.queries.load(), api_calls);
}

TEST_F(PipelineTest, WarmRunRecomputesVerdictForNewSameHashAddress) {
  // Two EIP-1967 proxies share one bytecode but store different logic
  // pointers. Sweep A first, then B in a *second* run: B is its own run's
  // representative, so nothing from the first run may hand it A's report
  // (A's probe selector, A's slot read) — every field must match what a
  // fresh pipeline computes at B.
  using datagen::ContractFactory;
  chain::Blockchain chain;
  const Address deployer = Address::from_label("warm-same-hash-deployer");
  const Address logic1 =
      chain.deploy_runtime(deployer, ContractFactory::token_contract(1));
  const Address logic2 =
      chain.deploy_runtime(deployer, ContractFactory::token_contract(2));
  const Address a =
      chain.deploy_runtime(deployer, ContractFactory::eip1967_proxy());
  const Address b =
      chain.deploy_runtime(deployer, ContractFactory::eip1967_proxy());
  chain.set_storage(a, ContractFactory::eip1967_slot(), logic1.to_word());
  chain.set_storage(b, ContractFactory::eip1967_slot(), logic2.to_word());

  AnalysisPipeline reused(chain, nullptr);

  const std::vector<SweepInput> first{{a, 2020, false, false}};
  const std::vector<SweepInput> second{{b, 2021, false, false}};

  const auto r1 = reused.run(first);
  ASSERT_EQ(r1.size(), 1u);
  ASSERT_TRUE(r1[0].proxy.is_proxy());
  EXPECT_EQ(r1[0].proxy.logic_address, logic1);

  const auto r2 = reused.run(second);
  const auto fresh = AnalysisPipeline(chain, nullptr).run(second);
  ASSERT_EQ(r2.size(), 1u);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_TRUE(r2[0] == fresh[0])
      << "warm run inherited another address's state";
  ASSERT_TRUE(r2[0].proxy.is_proxy());
  EXPECT_EQ(r2[0].proxy.logic_address, logic2);
}

TEST_F(PipelineTest, WarmRerunOfSamePopulationIsBitIdentical) {
  // Re-running the same population on one pipeline must reproduce the first
  // run's results byte for byte.
  Population pop = make_population(300);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto cold = pipeline.run(pop.sweep_inputs());
  const auto warm = pipeline.run(pop.sweep_inputs());
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_TRUE(cold[i] == warm[i]) << "contract " << i << " diverged warm";
  }
}

TEST_F(PipelineTest, RepeatRunAfterSetCodeMatchesFreshPipeline) {
  // run() keeps nothing keyed by address or code hash past its return, so a
  // second run over a mutated chain must match a fresh pipeline's run.
  Population pop = make_population(300);
  const auto inputs = pop.sweep_inputs();
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto first = pipeline.run(inputs);

  // A healthy non-proxy takes over the code of a later emulated proxy that
  // represents its clone family, so it becomes the family's representative:
  // its own report and every clone's (address-seeded probe selector) change.
  std::size_t target = first.size();
  std::size_t proxy = first.size();
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (target == first.size()) {
      if (!first[i].quarantined() && !first[i].proxy.is_proxy()) target = i;
    } else if (first[i].proxy.is_proxy() && !first[i].deduplicated &&
               first[i].proxy.probe_selector != 0) {
      proxy = i;
      break;
    }
  }
  ASSERT_LT(proxy, first.size());
  pop.chain->set_code(inputs[target].address,
                      pop.chain->code_at(inputs[proxy].address));
  pop.chain->mine_block();

  const auto second = pipeline.run(inputs);
  AnalysisPipeline fresh(*pop.chain, &pop.sources);
  const auto expected = fresh.run(inputs);
  ASSERT_FALSE(expected[target] == first[target]);
  ASSERT_EQ(second.size(), expected.size());
  std::size_t differ = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!(second[i] == expected[i])) ++differ;
  }
  EXPECT_EQ(differ, 0u) << "reports differing from a fresh pipeline's";
}

TEST_F(PipelineTest, CollisionDetectionCanBeDisabled) {
  Population pop = make_population(300);
  PipelineConfig config;
  config.detect_collisions = false;
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  const auto reports = pipeline.run(pop.sweep_inputs());
  for (const auto& r : reports) {
    EXPECT_FALSE(r.function_collision);
    EXPECT_FALSE(r.storage_collision);
  }
}

TEST_F(PipelineTest, EmptyInputYieldsEmptyStats) {
  Population pop = make_population(50);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run({});
  EXPECT_TRUE(reports.empty());
  const LandscapeStats stats = pipeline.summarize(reports);
  EXPECT_EQ(stats.total_contracts, 0u);
  EXPECT_EQ(stats.proxies, 0u);
}

TEST_F(PipelineTest, UpgradeHistogramMatchesTruth) {
  Population pop = make_population(2'000);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());

  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DeployedContract& truth = pop.contracts[i];
    if (!truth.is_proxy_truth || truth.upgrades_truth == 0) continue;
    if (truth.archetype == Archetype::kDiamondProxy) continue;
    EXPECT_EQ(reports[i].logic_history.upgrade_events, truth.upgrades_truth)
        << datagen::to_string(truth.archetype);
  }
}

}  // namespace
