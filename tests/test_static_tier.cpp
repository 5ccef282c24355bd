// Pipeline integration of the static triage tier: verdict equivalence with
// the tier off vs on (the acceptance bar — skips must never change what the
// sweep concludes), zero cross-check mismatches over the archetype corpus,
// per-kind skip accounting in LandscapeStats, the emulation fallback on the
// computed-jump adversary, dedup-off clones each triaged alike, registry
// gauges, text-report rendering, the run-to-fuse proof's soundness fixtures
// (tier-on reports equal tier-off ones in every field but the triage), and
// unit tests of the typed mismatch oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "datagen/assembler.h"
#include "datagen/contract_factory.h"
#include "datagen/population.h"
#include "evm/types.h"
#include "static/provenance.h"

namespace {

using namespace proxion;
using namespace proxion::core;
using chain::Blockchain;
using datagen::Assembler;
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
  // The broken archetype's no-exit loop is proved to run to the fuse.
  EXPECT_GE(stats.static_skipped_fuse, 1u);
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
// The run-to-fuse proof: soundness fixtures. Each is analyzed with the tier
// on (and the cross-check armed) and with it off; the proof may only change
// `static_triage`, never what the report says.

using evm::Opcode;

/// The population's broken archetype: JUMPDEST; PUSH2 loop; JUMP, with
/// unreachable DELEGATECALL bait.
evm::Bytes broken_loop() {
  Assembler a;
  a.jumpdest("loop");
  a.push_label("loop").op(Opcode::JUMP);
  a.op(Opcode::DELEGATECALL);
  return a.assemble();
}

/// An inner loop on a calldata condition inside an outer loop; neither
/// has an exit.
evm::Bytes nested_loops() {
  Assembler a;
  a.jumpdest("outer");
  a.push(U256{1}).push(U256{2}).op(Opcode::ADD).op(Opcode::POP);
  a.jumpdest("inner");
  a.op(Opcode::CALLDATASIZE).push_label("inner").op(Opcode::JUMPI);
  a.push_label("outer").op(Opcode::JUMP);
  a.op(Opcode::DELEGATECALL);
  return a.assemble();
}

/// A calldata JUMPI whose two arms each enter their own no-exit loop.
evm::Bytes forked_loops() {
  Assembler a;
  a.push(U256{0}).op(Opcode::CALLDATALOAD).push_label("right");
  a.op(Opcode::JUMPI);
  a.jumpdest("left");
  a.push_label("left").op(Opcode::JUMP);
  a.jumpdest("right");
  a.push(U256{7}).op(Opcode::POP);
  a.push_label("right").op(Opcode::JUMP);
  a.op(Opcode::DELEGATECALL);
  return a.assemble();
}

/// Straight-line code (constant memory, environment reads) before a
/// no-exit loop that keeps touching the same memory word.
evm::Bytes loop_after_prologue() {
  Assembler a;
  a.push(U256{0x2a}).push(U256{0x40}).op(Opcode::MSTORE);
  a.op(Opcode::CALLER).op(Opcode::POP);
  a.op(Opcode::CALLVALUE).op(Opcode::POP);
  a.jumpdest("loop");
  a.push(U256{0x40}).op(Opcode::MLOAD).push(U256{1}).op(Opcode::ADD);
  a.push(U256{0x40}).op(Opcode::MSTORE);
  a.push_label("loop").op(Opcode::JUMP);
  a.op(Opcode::DELEGATECALL);
  return a.assemble();
}

/// A no-exit loop that keeps storing at a constant offset 1 MiB into
/// memory: ~2.2M gas of one-time expansion, paid once.
evm::Bytes memory_loop() {
  Assembler a;
  a.jumpdest("loop");
  a.push(U256{1}).push(U256{0x100000}).op(Opcode::MSTORE);
  a.push_label("loop").op(Opcode::JUMP);
  a.op(Opcode::DELEGATECALL);
  return a.assemble();
}

/// A loop whose exit depends on calldata: the probe's calldata never
/// takes it, but another input would.
evm::Bytes loop_with_conditional_exit() {
  Assembler a;
  a.jumpdest("loop");
  a.op(Opcode::CALLDATASIZE).op(Opcode::ISZERO).push_label("exit");
  a.op(Opcode::JUMPI);
  a.push_label("loop").op(Opcode::JUMP);
  a.jumpdest("exit");
  a.op(Opcode::STOP);
  a.op(Opcode::DELEGATECALL);
  return a.assemble();
}

/// A loop that DELEGATECALLs a code-less address every iteration.
evm::Bytes loop_with_delegatecall() {
  Assembler a;
  a.jumpdest("loop");
  a.push(U256{0}).push(U256{0}).push(U256{0}).push(U256{0});
  a.push_address(Address::from_label("fixture.empty"));
  a.op(Opcode::GAS).op(Opcode::DELEGATECALL).op(Opcode::POP);
  a.push_label("loop").op(Opcode::JUMP);
  return a.assemble();
}

/// A loop that pushes one word per iteration: the stack overflows at 1,024
/// words, long before the fuse.
evm::Bytes stack_growing_loop() {
  Assembler a;
  a.jumpdest("loop");
  a.push(U256{1});
  a.push_label("loop").op(Opcode::JUMP);
  a.op(Opcode::DELEGATECALL);
  return a.assemble();
}

/// A loop of SSTOREs and an SLOAD: ~29 gas per step spends the 5M budget
/// before 200,000 steps.
evm::Bytes storage_loop() {
  Assembler a;
  a.jumpdest("loop");
  for (std::uint64_t slot = 0; slot < 4; ++slot) {
    a.push(U256{1}).push(U256{slot}).op(Opcode::SSTORE);
  }
  a.push(U256{0}).op(Opcode::SLOAD).op(Opcode::POP);
  a.push_label("loop").op(Opcode::JUMP);
  a.op(Opcode::DELEGATECALL);
  return a.assemble();
}

/// A loop back to pc 0 through a computed jump (0 × CALLDATASIZE): it does
/// run to the fuse, but the abstract stack cannot resolve the target.
evm::Bytes computed_jump_loop() {
  Assembler a;
  a.jumpdest("top");
  a.push(U256{0}).op(Opcode::CALLDATASIZE).op(Opcode::MUL);
  a.op(Opcode::JUMP);
  a.op(Opcode::DELEGATECALL);
  return a.assemble();
}

/// A loop whose calldata branch jumps to a constant non-JUMPDEST target.
evm::Bytes loop_with_faulting_arm() {
  Assembler a;
  a.jumpdest("loop");
  a.op(Opcode::CALLDATASIZE).push(U256{1}).op(Opcode::JUMPI);
  a.push_label("loop").op(Opcode::JUMP);
  a.op(Opcode::DELEGATECALL);
  return a.assemble();
}

/// A loop whose calldata branch reaches INVALID.
evm::Bytes loop_with_invalid_exit() {
  Assembler a;
  a.jumpdest("loop");
  a.op(Opcode::CALLDATASIZE).push_label("exit").op(Opcode::JUMPI);
  a.push_label("loop").op(Opcode::JUMP);
  a.jumpdest("exit");
  a.op(Opcode::INVALID);
  a.op(Opcode::DELEGATECALL);
  return a.assemble();
}

/// A loop whose back edge is a JUMPI at the very end of the code: when the
/// condition fails, execution runs off the end (the implicit STOP).
evm::Bytes loop_falling_off_the_end() {
  Assembler a;
  a.push_label("loop").op(Opcode::JUMP);
  a.op(Opcode::DELEGATECALL);
  a.jumpdest("loop");
  a.op(Opcode::CALLDATASIZE).op(Opcode::ISZERO).push_label("loop");
  a.op(Opcode::JUMPI);
  return a.assemble();
}

/// The same loop with straight-line code after the JUMPI: the last block
/// ends without a control transfer and runs off the end.
evm::Bytes loop_then_trailing_code() {
  Assembler a;
  a.push_label("loop").op(Opcode::JUMP);
  a.op(Opcode::DELEGATECALL);
  a.jumpdest("loop");
  a.op(Opcode::CALLDATASIZE).op(Opcode::ISZERO).push_label("loop");
  a.op(Opcode::JUMPI);
  a.push(U256{1}).op(Opcode::POP);
  return a.assemble();
}

/// A loop that MSTOREs at a calldata-chosen offset: memory is unbounded
/// (the probe's offset overflows the memory fuse).
evm::Bytes loop_with_calldata_memory() {
  Assembler a;
  a.jumpdest("loop");
  a.push(U256{1}).push(U256{0}).op(Opcode::CALLDATALOAD);
  a.op(Opcode::MSTORE);
  a.push_label("loop").op(Opcode::JUMP);
  a.op(Opcode::DELEGATECALL);
  return a.assemble();
}

struct FuseFixture {
  const char* name;
  evm::Bytes code;
  bool proof_holds;
  evm::HaltReason emulated_halt;
};

std::vector<FuseFixture> fuse_fixtures() {
  using evm::HaltReason;
  return {
      {"broken-loop", broken_loop(), true, HaltReason::kStepLimit},
      {"nested-loops", nested_loops(), true, HaltReason::kStepLimit},
      {"forked-loops", forked_loops(), true, HaltReason::kStepLimit},
      {"loop-after-prologue", loop_after_prologue(), true,
       HaltReason::kStepLimit},
      {"memory-loop", memory_loop(), true, HaltReason::kStepLimit},
      {"conditional-exit", loop_with_conditional_exit(), false,
       HaltReason::kStepLimit},
      {"delegatecall-loop", loop_with_delegatecall(), false,
       HaltReason::kStepLimit},
      {"stack-growing", stack_growing_loop(), false,
       HaltReason::kStackOverflow},
      {"storage-loop", storage_loop(), false, HaltReason::kOutOfGas},
      {"computed-jump", computed_jump_loop(), false, HaltReason::kStepLimit},
      {"faulting-arm", loop_with_faulting_arm(), false,
       HaltReason::kBadJumpDestination},
      {"invalid-exit", loop_with_invalid_exit(), false,
       HaltReason::kInvalidOpcode},
      {"falls-off-the-end", loop_falling_off_the_end(), false,
       HaltReason::kStop},
      {"trailing-code", loop_then_trailing_code(), false, HaltReason::kStop},
      {"calldata-memory", loop_with_calldata_memory(), false,
       HaltReason::kOutOfGas},
      {"self-call-loop", ContractFactory::deep_recursion_contract(), false,
       HaltReason::kStepLimit},
  };
}

ProxyDetectorConfig fuse_tier_on() {
  ProxyDetectorConfig config;
  config.static_tier.enabled = true;
  config.static_tier.cross_check = true;
  return config;
}

/// The tier-on report with its triage copied from the tier-off one: equal
/// to the tier-off report iff the tier changed nothing else.
ProxyReport without_triage(ProxyReport on, const ProxyReport& off) {
  on.static_triage = off.static_triage;
  return on;
}

/// Analyzes `code` at `gas` with the tier off and on; expects the proof to
/// hold exactly when `proof_holds`, and the reports to differ in
/// `static_triage` alone. Returns the tier-off report.
ProxyReport expect_same_report(const evm::Bytes& code, std::uint64_t gas,
                               bool proof_holds, const std::string& label) {
  ProxyDetectorConfig config_off;
  config_off.emulation_gas = gas;
  ProxyDetectorConfig config_on = fuse_tier_on();
  config_on.emulation_gas = gas;
  const static_analysis::StaticReport st =
      static_analysis::analyze(evm::Disassembly(code));
  EXPECT_EQ(st.runs_to_fuse(gas, config_on.step_limit), proof_holds) << label;

  Blockchain chain;
  const Address a =
      chain.deploy_runtime(Address::from_label("fuse.deployer"), code);
  const ProxyReport r_off = ProxyDetector(chain, config_off).analyze(a);
  const ProxyReport r_on = ProxyDetector(chain, config_on).analyze(a);
  EXPECT_EQ(r_on.static_triage, proof_holds ? StaticTriage::kSkippedRunsToFuse
                                            : StaticTriage::kEmulated)
      << label;
  EXPECT_EQ(without_triage(r_on, r_off), r_off) << label;
  EXPECT_EQ(r_on.static_mismatch, 0u) << label;
  if (proof_holds) {
    EXPECT_EQ(r_on.verdict, ProxyVerdict::kEmulationError) << label;
    EXPECT_EQ(r_on.emulation_steps, config_on.step_limit + 1) << label;
  }
  return r_off;
}

TEST(RunsToFuseTest, ProofHoldsOrRefusesAndNeverChangesTheReport) {
  const std::uint64_t gas = ProxyDetectorConfig{}.emulation_gas;
  for (const FuseFixture& f : fuse_fixtures()) {
    const ProxyReport r_off =
        expect_same_report(f.code, gas, f.proof_holds, f.name);
    EXPECT_EQ(r_off.halt, f.emulated_halt) << f.name;
  }
}

TEST(RunsToFuseTest, GenerousGasLeavesTheStructuralClausesToRefuse) {
  // With gas far above any fuse bound, only the structural clauses stand
  // between a loop and the proof: a reachable DELEGATECALL, external call
  // or storage access still refuses it, and every report still matches.
  for (const FuseFixture& f : fuse_fixtures()) {
    expect_same_report(f.code, 1'000'000'000'000'000, f.proof_holds, f.name);
  }
}

TEST(RunsToFuseTest, GasBoundDecidesBetweenFuseAndOutOfGas) {
  // The broken loop's costliest instruction is JUMP (8 gas), so the fuse's
  // bound at 200,000 steps is 200,001 × 8. With the budget at that bound the
  // proof refuses; the emulation still reaches the fuse (the bound is
  // sound). At a quarter of it, the gas runs out first.
  const static_analysis::StaticReport st =
      static_analysis::analyze(evm::Disassembly(broken_loop()));
  const std::uint64_t bound = st.fuse_gas_bound(200'000);
  EXPECT_EQ(bound, 200'001u * 8u);
  EXPECT_TRUE(st.runs_to_fuse(bound + 1, 200'000));
  EXPECT_EQ(st.fuse_gas_bound(UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(expect_same_report(broken_loop(), bound, false, "at the bound")
                .halt,
            evm::HaltReason::kStepLimit);
  EXPECT_EQ(expect_same_report(broken_loop(), bound / 4, false, "below")
                .halt,
            evm::HaltReason::kOutOfGas);

  // Memory expansion counts once: 1 MiB + 32 bytes costs 3 × 32,769 +
  // 32,769² / 512 gas on top of the steps' 200,001 × 8. A budget between the
  // steps' share and the full bound runs out of gas, so the proof refuses.
  const static_analysis::StaticReport st_mem =
      static_analysis::analyze(evm::Disassembly(memory_loop()));
  const std::uint64_t words = 32'769;
  EXPECT_EQ(st_mem.fuse_gas_bound(200'000),
            200'001u * 8u + 3 * words + words * words / 512);
  EXPECT_EQ(expect_same_report(memory_loop(), 2'500'000, false, "memory")
                .halt,
            evm::HaltReason::kOutOfGas);

  // A loop that touches storage never qualifies, whatever the budget: the
  // probe's storage accesses are what the layout oracle audits.
  const static_analysis::StaticReport st_storage =
      static_analysis::analyze(evm::Disassembly(storage_loop()));
  EXPECT_TRUE(st_storage.provably_no_exit);
  EXPECT_FALSE(st_storage.runs_to_fuse(UINT64_MAX, 200'000));
}

TEST(RunsToFuseTest, PipelineCountsAndRendersTheSkip) {
  MiniSweep s;
  s.add(broken_loop());
  s.add(nested_loops());
  AnalysisPipeline pipeline(s.chain, nullptr);
  const auto reports = pipeline.run(s.inputs);
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& r : reports) {
    EXPECT_EQ(r.proxy.static_triage, StaticTriage::kSkippedRunsToFuse);
    EXPECT_EQ(r.proxy.halt, evm::HaltReason::kStepLimit);
  }
  const LandscapeStats stats = pipeline.summarize(reports);
  EXPECT_EQ(stats.static_skipped_fuse, 2u);
  EXPECT_EQ(stats.emulation_errors, 2u);
  const std::string text = render_landscape_text(stats);
  EXPECT_NE(text.find("2/2 blobs skipped emulation"), std::string::npos);
  EXPECT_NE(text.find("runs-to-fuse=2"), std::string::npos);
}

TEST(StaticTierTest, ZeroSizeReturndataCopyFromNonzeroOffsetIsNoDeadSkip) {
  // RETURNDATACOPY(0, 5, 0) with an empty return-data buffer halts
  // kReturnDataOutOfBounds: the range check reads offset + size, so a
  // zero-size copy faults too. The dead-DELEGATECALL skip must not claim a
  // clean halt here.
  Assembler a;
  a.push(U256{0}).push(U256{5}).push(U256{0});
  a.op(Opcode::RETURNDATACOPY).op(Opcode::STOP);
  a.op(Opcode::DELEGATECALL);
  const ProxyReport r_off = expect_same_report(
      a.assemble(), ProxyDetectorConfig{}.emulation_gas, false, "rdc");
  EXPECT_EQ(r_off.halt, evm::HaltReason::kReturnDataOutOfBounds);
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

TEST(MismatchOracleTest, TerminationBit) {
  auto st = complete_report();
  st.provably_clean_termination = true;
  st.cfg.reachable_instructions = 12;
  st.cfg.worst_case_gas = 300;
  ProxyReport emulated;
  emulated.halt = evm::HaltReason::kStepLimit;
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated),
            kMismatchTermination);
  emulated.halt = evm::HaltReason::kOutOfGas;
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated),
            kMismatchTermination);
  emulated.halt = evm::HaltReason::kStop;
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated), 0u);
  // Budgets below the proof's bounds explain a fuse or out-of-gas halt.
  emulated.halt = evm::HaltReason::kStepLimit;
  ProxyDetectorConfig tight;
  tight.step_limit = 12;
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated, tight),
            0u);
  tight = {};
  tight.emulation_gas = 300;
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated, tight),
            0u);
  // An executed DELEGATECALL ran foreign code the proof does not cover.
  emulated.delegatecall_executed = true;
  EXPECT_EQ(ProxyDetector::static_vs_emulation_mismatch(st, emulated), 0u);
}

}  // namespace
