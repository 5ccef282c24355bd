// Pipeline integration of the static triage tier: verdict equivalence with
// the tier off vs on (the acceptance bar — skips must never change what the
// sweep concludes), zero cross-check mismatches over the archetype corpus,
// per-kind skip accounting in LandscapeStats, the emulation fallback on the
// computed-jump adversary, dedup-off clones each triaged alike, registry
// gauges, text-report rendering, and unit tests of the typed mismatch oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "datagen/contract_factory.h"
#include "datagen/population.h"
#include "evm/types.h"
#include "static/provenance.h"

namespace {

using namespace proxion;
using namespace proxion::core;
using chain::Blockchain;
using datagen::ContractFactory;
using datagen::Population;
using datagen::PopulationGenerator;
using datagen::PopulationSpec;
using evm::Address;
using evm::U256;

Population make_population(std::uint32_t n) {
  PopulationSpec spec;
  spec.total_contracts = n;
  return PopulationGenerator().generate(spec);
}

PipelineConfig tier_off() {
  PipelineConfig config;
  config.static_tier.enabled = false;
  config.static_tier.cross_check = false;
  return config;
}

// ---------------------------------------------------------------------------
// The acceptance bar: prefilter on produces verdict-identical sweeps.

TEST(StaticTierTest, PrefilterPreservesVerdictsBitIdentical) {
  Population pop = make_population(600);
  AnalysisPipeline baseline(*pop.chain, &pop.sources, tier_off());
  AnalysisPipeline tiered(*pop.chain, &pop.sources);  // default: tier on
  const auto off = baseline.run(pop.sweep_inputs());
  const auto on = tiered.run(pop.sweep_inputs());
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].proxy.verdict, on[i].proxy.verdict) << i;
    EXPECT_EQ(off[i].proxy.standard, on[i].proxy.standard) << i;
    EXPECT_EQ(off[i].proxy.logic_source, on[i].proxy.logic_source) << i;
    EXPECT_EQ(off[i].proxy.logic_slot, on[i].proxy.logic_slot) << i;
    EXPECT_EQ(off[i].proxy.logic_address, on[i].proxy.logic_address) << i;
    EXPECT_EQ(off[i].function_collision, on[i].function_collision) << i;
    EXPECT_EQ(off[i].storage_collision, on[i].storage_collision) << i;
  }
}

TEST(StaticTierTest, PopulationSweepHasZeroMismatchesAndRealSkips) {
  Population pop = make_population(800);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());
  const LandscapeStats stats = pipeline.summarize(reports);

  // Sound static claims: the emulation never contradicts them.
  EXPECT_EQ(stats.static_mismatches, 0u);
  EXPECT_TRUE(stats.static_mismatch_bits.empty());

  // The tier actually routes: plain contracts skip as phase-1-absent,
  // minimal proxies fast-path, and real slot proxies still emulate.
  EXPECT_GT(stats.static_skipped_absent, 0u);
  EXPECT_GT(stats.static_emulated, 0u);
}

// ---------------------------------------------------------------------------
// Per-fixture routing through a hand-built chain

struct MiniSweep {
  Blockchain chain;
  std::vector<SweepInput> inputs;
  Address deployer = Address::from_label("tier.deployer");

  Address add(const evm::Bytes& code) {
    const Address a = chain.deploy_runtime(deployer, code);
    inputs.push_back({.address = a, .year = 2022});
    return a;
  }
};

TEST(StaticTierTest, RoutesEachTriageKind) {
  MiniSweep s;
  const Address logic = s.chain.deploy_runtime(
      s.deployer, ContractFactory::token_contract(11));
  s.add(ContractFactory::minimal_proxy(logic));
  s.add(ContractFactory::token_contract(22));
  s.add(ContractFactory::dead_delegatecall_contract());
  const Address slotp = s.add(ContractFactory::slot_proxy(U256{3}));
  s.chain.set_storage(slotp, U256{3}, logic.to_word());

  AnalysisPipeline pipeline(s.chain, nullptr);
  const auto reports = pipeline.run(s.inputs);
  ASSERT_EQ(reports.size(), 4u);

  const auto& r_min = reports[0].proxy;
  EXPECT_EQ(r_min.static_triage, StaticTriage::kSkippedMinimalProxy);
  EXPECT_EQ(r_min.verdict, ProxyVerdict::kProxy);
  EXPECT_EQ(r_min.standard, ProxyStandard::kEip1167);
  EXPECT_EQ(r_min.logic_address, logic);
  EXPECT_EQ(r_min.logic_source, LogicSource::kHardcoded);
  EXPECT_EQ(r_min.emulation_steps, 0u);

  const auto& r_plain = reports[1].proxy;
  EXPECT_EQ(r_plain.static_triage, StaticTriage::kSkippedNoDelegatecall);
  EXPECT_EQ(r_plain.verdict, ProxyVerdict::kNotProxy);
  EXPECT_EQ(r_plain.emulation_steps, 0u);

  const auto& r_dead = reports[2].proxy;
  EXPECT_EQ(r_dead.static_triage, StaticTriage::kSkippedDeadDelegatecall);
  EXPECT_EQ(r_dead.verdict, ProxyVerdict::kNotProxy);
  EXPECT_TRUE(r_dead.has_delegatecall_opcode);  // phase 1 could NOT skip it
  EXPECT_EQ(r_dead.emulation_steps, 0u);

  const auto& r_slot = reports[3].proxy;
  EXPECT_EQ(r_slot.static_triage, StaticTriage::kEmulated);
  EXPECT_EQ(r_slot.verdict, ProxyVerdict::kProxy);
  EXPECT_EQ(r_slot.logic_source, LogicSource::kStorageSlot);
  EXPECT_EQ(r_slot.logic_slot, U256{3});
  EXPECT_EQ(r_slot.static_mismatch, 0u);
  EXPECT_GT(r_slot.emulation_steps, 0u);

  const LandscapeStats stats = pipeline.summarize(reports);
  EXPECT_EQ(stats.static_skipped_minimal, 1u);
  EXPECT_EQ(stats.static_skipped_absent, 1u);
  EXPECT_EQ(stats.static_skipped_dead, 1u);
  EXPECT_EQ(stats.static_emulated, 1u);
  EXPECT_EQ(stats.static_mismatches, 0u);

  // The text report surfaces the triage line.
  const std::string text = render_landscape_text(stats);
  EXPECT_NE(text.find("static tier:"), std::string::npos);
  EXPECT_NE(text.find("3/4 blobs skipped emulation"), std::string::npos);
  EXPECT_EQ(text.find("static mismatches:"), std::string::npos);
}

TEST(StaticTierTest, ComputedJumpFallsBackToEmulationAndStaysDetected) {
  // The maximally-sensitive adversary: a genuine proxy behind a jump the
  // abstract stack cannot resolve. A wrong skip here flips the verdict, so
  // this asserts both the fallback routing AND the detection.
  MiniSweep s;
  const Address logic = s.chain.deploy_runtime(
      s.deployer, ContractFactory::token_contract(33));
  const Address p = s.add(ContractFactory::computed_jump_contract(U256{7}));
  s.chain.set_storage(p, U256{7}, logic.to_word());

  AnalysisPipeline pipeline(s.chain, nullptr);
  const auto reports = pipeline.run(s.inputs);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].proxy.static_triage, StaticTriage::kEmulated);
  EXPECT_EQ(reports[0].proxy.verdict, ProxyVerdict::kProxy);
  EXPECT_EQ(reports[0].proxy.logic_address, logic);
  EXPECT_EQ(reports[0].proxy.static_mismatch, 0u)
      << "an incomplete CFG must make no contradictable claim";
}

TEST(StaticTierTest, DedupOffClonesEachTriageAndEmulateAsProxies) {
  // With dedup off every clone re-runs the detector, static tier included;
  // each must still route to emulation and reach the proxy verdict.
  MiniSweep s;
  const Address logic = s.chain.deploy_runtime(
      s.deployer, ContractFactory::token_contract(44));
  for (int i = 0; i < 3; ++i) {
    const Address p = s.add(ContractFactory::eip1967_proxy());
    s.chain.set_storage(p, ContractFactory::eip1967_slot(), logic.to_word());
  }

  PipelineConfig config;
  config.dedup_by_code_hash = false;
  AnalysisPipeline pipeline(s.chain, nullptr, config);
  const auto reports = pipeline.run(s.inputs);
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& r : reports) {
    EXPECT_EQ(r.proxy.verdict, ProxyVerdict::kProxy);
    EXPECT_EQ(r.proxy.static_triage, StaticTriage::kEmulated);
  }
}

TEST(StaticTierTest, DetectorStandaloneDefaultsToTierOff) {
  // Standalone ProxyDetector keeps the seed behavior unless opted in.
  Blockchain chain;
  const Address d = Address::from_label("standalone.deployer");
  const Address t =
      chain.deploy_runtime(d, ContractFactory::token_contract(55));
  ProxyDetector detector(chain);
  const ProxyReport r = detector.analyze(t);
  EXPECT_EQ(r.static_triage, StaticTriage::kNotRun);
  EXPECT_EQ(r.static_mismatch, 0u);
}

// ---------------------------------------------------------------------------
// The typed mismatch oracle on synthetic inputs

static_analysis::StaticReport complete_report() {
  static_analysis::StaticReport st;
  st.cfg.complete = true;
  return st;
}

static_analysis::DelegatecallSite site(static_analysis::TargetClass cls,
                                       const U256& slot = U256{},
                                       const Address& addr = Address{}) {
  static_analysis::DelegatecallSite s;
  s.pc = 10;
  s.reachable = true;
  s.target_class = cls;
  s.slot = slot;
  s.address = addr;
  return s;
}

TEST(MismatchOracleTest, IncompleteCfgMakesNoClaim) {
  static_analysis::StaticReport st;
  st.cfg.complete = false;
  st.provably_no_delegatecall = true;  // would otherwise contradict below
  ProxyReport emulated;
  emulated.delegatecall_executed = true;
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated), 0u);
}

TEST(MismatchOracleTest, ReachabilityBit) {
  auto st = complete_report();
  st.provably_no_delegatecall = true;
  ProxyReport emulated;
  emulated.delegatecall_executed = true;
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated),
            kMismatchReachability);
  emulated.delegatecall_executed = false;
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated), 0u);
}

TEST(MismatchOracleTest, SlotBit) {
  using static_analysis::TargetClass;
  auto st = complete_report();
  st.has_delegatecall = true;
  st.any_reachable_delegatecall = true;
  st.sites = {site(TargetClass::kStorageSlot, U256{5})};
  ProxyReport emulated;
  emulated.verdict = ProxyVerdict::kProxy;
  emulated.delegatecall_executed = true;
  emulated.logic_source = LogicSource::kStorageSlot;
  emulated.logic_slot = U256{5};
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated), 0u);
  emulated.logic_slot = U256{6};
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated),
            kMismatchSlot);
  // A mixed site population withdraws the claim.
  st.sites.push_back(site(TargetClass::kUnknown));
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated), 0u);
}

TEST(MismatchOracleTest, TargetBit) {
  using static_analysis::TargetClass;
  const Address a = Address::from_label("oracle.a");
  const Address b = Address::from_label("oracle.b");
  auto st = complete_report();
  st.has_delegatecall = true;
  st.any_reachable_delegatecall = true;
  st.sites = {site(TargetClass::kHardcoded, U256{}, a)};
  ProxyReport emulated;
  emulated.verdict = ProxyVerdict::kProxy;
  emulated.delegatecall_executed = true;
  emulated.logic_source = LogicSource::kHardcoded;
  emulated.logic_address = a;
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated), 0u);
  emulated.logic_address = b;
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated),
            kMismatchTarget);
  // Unreachable sites make no claim: reachable_sites() filters them out.
  st.sites[0].reachable = false;
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated), 0u);
}

}  // namespace
