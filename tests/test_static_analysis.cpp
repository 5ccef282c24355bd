// Unit + corpus tests for the static dataflow tier (src/static): abstract
// lattice semantics, CFG recovery edge cases (empty code, truncated PUSH at
// code end), DELEGATECALL provenance per archetype, EIP-1167 matching, the
// dead-skip proof facts, determinism of block ordering, and — the load-
// bearing soundness check — agreement between the recovered edges and the
// jumps the interpreter actually takes across the full archetype corpus.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "chain/blockchain.h"
#include "core/proxy_detector.h"
#include "crypto/eth.h"
#include "datagen/assembler.h"
#include "datagen/contract_factory.h"
#include "evm/disassembler.h"
#include "evm/host.h"
#include "evm/interpreter.h"
#include "static/cfg.h"
#include "static/provenance.h"

namespace {

using namespace proxion;
using chain::Blockchain;
using datagen::Assembler;
using datagen::ContractFactory;
using evm::Address;
using evm::Bytes;
using evm::Opcode;
using evm::U256;
using static_analysis::AbstractValue;
using static_analysis::Cfg;
using static_analysis::StaticReport;
using static_analysis::TargetClass;

StaticReport analyze_bytes(const Bytes& code) {
  const evm::Disassembly dis(code);
  return static_analysis::analyze(dis);
}

// ---------------------------------------------------------------------------
// Lattice

TEST(AbstractValueTest, JoinSemantics) {
  const auto c1 = AbstractValue::constant(U256{7});
  const auto c2 = AbstractValue::constant(U256{8});
  const auto s5 = AbstractValue::storage(U256{5});
  const auto cd = AbstractValue::calldata();
  const auto top = AbstractValue::unknown();

  EXPECT_EQ(join(c1, c1), c1);
  EXPECT_EQ(join(s5, s5), s5);
  EXPECT_EQ(join(cd, cd), cd);
  EXPECT_EQ(join(c1, c2), top);
  EXPECT_EQ(join(c1, s5), top);
  EXPECT_EQ(join(c1, cd), top);  // mixed const/calldata degrades fully
  EXPECT_EQ(join(s5, AbstractValue::storage(U256{6})), top);
  EXPECT_EQ(join(top, c1), top);
}

// ---------------------------------------------------------------------------
// CFG edge cases

TEST(CfgRecoveryTest, EmptyCode) {
  const Cfg cfg = static_analysis::recover_cfg(evm::Disassembly(Bytes{}));
  EXPECT_TRUE(cfg.blocks.empty());
  EXPECT_TRUE(cfg.complete);
  EXPECT_EQ(cfg.reachable_block_count(), 0u);
  EXPECT_FALSE(cfg.block_containing(0).has_value());
}

TEST(CfgRecoveryTest, TruncatedPushAtEndOfCode) {
  // PUSH2 with only one immediate byte: the interpreter zero-pads on the
  // right (value 0xaa00) and runs off the code end into an implicit STOP.
  const Bytes code = {0x61, 0xaa};
  const Cfg cfg = static_analysis::recover_cfg(evm::Disassembly(code));
  ASSERT_EQ(cfg.blocks.size(), 1u);
  EXPECT_TRUE(cfg.complete);
  EXPECT_TRUE(cfg.blocks[0].reachable);
  EXPECT_FALSE(cfg.blocks[0].may_fault);
}

TEST(CfgRecoveryTest, ResolvesDispatcherEdgesAndDeterministicOrdering) {
  const Bytes code = ContractFactory::eip1967_proxy();
  const evm::Disassembly dis(code);
  const Cfg cfg = static_analysis::recover_cfg(dis);
  EXPECT_TRUE(cfg.complete);
  EXPECT_GT(cfg.reachable_block_count(), 1u);
  // Blocks parallel the disassembly and stay sorted by start_pc.
  ASSERT_EQ(cfg.blocks.size(), dis.blocks().size());
  for (std::size_t i = 0; i < cfg.blocks.size(); ++i) {
    EXPECT_EQ(cfg.blocks[i].start_pc, dis.blocks()[i].start_pc);
    if (i > 0) {
      EXPECT_LT(cfg.blocks[i - 1].start_pc, cfg.blocks[i].start_pc);
    }
    // Successor lists are sorted + deduplicated.
    const auto& s = cfg.blocks[i].successors;
    for (std::size_t k = 1; k < s.size(); ++k) EXPECT_LT(s[k - 1], s[k]);
  }
  // Bit-for-bit deterministic across recoveries.
  const Cfg again = static_analysis::recover_cfg(dis);
  EXPECT_EQ(cfg.to_string(), again.to_string());
}

// ---------------------------------------------------------------------------
// DELEGATECALL provenance

TEST(ProvenanceTest, SlotProxiesRecoverTheConcreteSlot) {
  struct Case {
    Bytes code;
    U256 slot;
  };
  const std::vector<Case> cases = {
      {ContractFactory::eip1967_proxy(), ContractFactory::eip1967_slot()},
      {ContractFactory::eip1822_proxy(), ContractFactory::eip1822_slot()},
      {ContractFactory::slot_proxy(U256{0}), U256{0}},
      {ContractFactory::slot_proxy(U256{42}), U256{42}},
  };
  for (const Case& c : cases) {
    const StaticReport report = analyze_bytes(c.code);
    ASSERT_TRUE(report.has_delegatecall);
    const auto sites = report.reachable_sites();
    ASSERT_EQ(sites.size(), 1u);
    // The fallback masks the SLOAD with 2^160-1; the AND transfer rule must
    // preserve the slot attribution through that mask.
    EXPECT_EQ(sites[0].target_class, TargetClass::kStorageSlot);
    EXPECT_EQ(sites[0].slot, c.slot);
  }
}

TEST(ProvenanceTest, HardcodedTargetClassification) {
  const Address logic = Address::from_label("static.logic");
  Assembler a;
  for (int i = 0; i < 4; ++i) a.push(U256{0}, 1);  // out/in memory operands
  a.push_address(logic);
  a.op(Opcode::GAS).op(Opcode::DELEGATECALL).op(Opcode::POP).op(Opcode::STOP);
  const StaticReport report = analyze_bytes(a.assemble());
  const auto sites = report.reachable_sites();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].target_class, TargetClass::kHardcoded);
  EXPECT_EQ(sites[0].address, logic);
}

TEST(ProvenanceTest, CalldataTargetClassification) {
  Assembler a;
  for (int i = 0; i < 4; ++i) a.push(U256{0}, 1);
  a.push(U256{0}, 1).op(Opcode::CALLDATALOAD);  // caller-chosen target
  a.op(Opcode::GAS).op(Opcode::DELEGATECALL).op(Opcode::POP).op(Opcode::STOP);
  const StaticReport report = analyze_bytes(a.assemble());
  const auto sites = report.reachable_sites();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].target_class, TargetClass::kCalldata);
}

TEST(ProvenanceTest, Eip1167ExactMatch) {
  const Address logic = Address::from_label("mini.logic");
  const Bytes code = ContractFactory::minimal_proxy(logic);
  const StaticReport report = analyze_bytes(code);
  ASSERT_TRUE(report.minimal_proxy_target.has_value());
  EXPECT_EQ(*report.minimal_proxy_target, logic);

  // Near-misses must NOT match: one byte short, one byte long, one byte off.
  Bytes shorter(code.begin(), code.end() - 1);
  EXPECT_FALSE(analyze_bytes(shorter).minimal_proxy_target.has_value());
  Bytes longer = code;
  longer.push_back(0x00);
  EXPECT_FALSE(analyze_bytes(longer).minimal_proxy_target.has_value());
  Bytes corrupted = code;
  corrupted[0] = 0x35;
  EXPECT_FALSE(analyze_bytes(corrupted).minimal_proxy_target.has_value());
}

// ---------------------------------------------------------------------------
// Dead-skip proof facts on the adversarial fixtures

TEST(StaticProofTest, DeadDelegatecallIsProvablySkippable) {
  const StaticReport r =
      analyze_bytes(ContractFactory::dead_delegatecall_contract());
  EXPECT_TRUE(r.has_delegatecall);  // the prefilter can NOT shortcut this
  EXPECT_FALSE(r.any_reachable_delegatecall);
  EXPECT_TRUE(r.cfg.complete);
  EXPECT_TRUE(r.provably_no_delegatecall);
  EXPECT_TRUE(r.provably_clean_termination);
  EXPECT_TRUE(r.skip_dead(5'000'000, 200'000));
  // ... but not within an absurdly small budget.
  EXPECT_FALSE(r.skip_dead(10, 200'000));
  EXPECT_FALSE(r.skip_dead(5'000'000, 1));
}

TEST(StaticProofTest, PushDataDelegatecallIsInvisibleToTheSweep) {
  const Bytes code = ContractFactory::push_data_delegatecall_contract();
  const evm::Disassembly dis(code);
  // The defining property: 0xf4 appears in the bytes but never as an
  // instruction, so phase 1 already rules the blob out.
  EXPECT_FALSE(dis.contains(Opcode::DELEGATECALL));
  const StaticReport r = static_analysis::analyze(dis);
  EXPECT_FALSE(r.has_delegatecall);
  EXPECT_TRUE(r.sites.empty());
}

TEST(StaticProofTest, ComputedJumpDefeatsResolutionAndBlocksSkips) {
  const StaticReport r =
      analyze_bytes(ContractFactory::computed_jump_contract(U256{0}));
  EXPECT_FALSE(r.cfg.complete);
  EXPECT_GE(r.cfg.unresolved_jump_count(), 1u);
  EXPECT_FALSE(r.provably_no_delegatecall);
  EXPECT_FALSE(r.provably_clean_termination);
  EXPECT_FALSE(r.skip_dead(5'000'000, 200'000));
}

TEST(StaticProofTest, InfiniteLoopHasReachableCycleAndNeverSkips) {
  const StaticReport r =
      analyze_bytes(ContractFactory::infinite_loop_contract());
  EXPECT_TRUE(r.cfg.complete);  // the loop's jump target is constant
  EXPECT_TRUE(r.cfg.has_reachable_cycle);
  EXPECT_TRUE(r.provably_no_delegatecall);  // the bait site is dead...
  EXPECT_FALSE(r.provably_clean_termination);  // ...but no termination proof
  EXPECT_FALSE(r.skip_dead(5'000'000, 200'000));
  EXPECT_TRUE(r.provably_no_exit);  // ...and no way out: it runs to the fuse
  EXPECT_TRUE(r.runs_to_fuse(5'000'000, 200'000));
}

TEST(StaticProofTest, ExternalCallBlocksCleanTermination) {
  const StaticReport r =
      analyze_bytes(ContractFactory::deep_recursion_contract());
  EXPECT_TRUE(r.cfg.external_call_reachable);
  EXPECT_FALSE(r.provably_clean_termination);
  EXPECT_FALSE(r.skip_dead(5'000'000, 200'000));
  EXPECT_FALSE(r.provably_no_exit);  // the callee may halt the probe
  EXPECT_FALSE(r.runs_to_fuse(5'000'000, 200'000));
}

// ---------------------------------------------------------------------------
// Corpus agreement: recovered edges vs the interpreter's taken jumps

/// Records every jump the tested contract's own code actually takes, plus
/// each executed pc, from the pre-execution instruction hook.
class JumpRecorder final : public evm::TraceObserver {
 public:
  explicit JumpRecorder(const Address& contract) : contract_(contract) {}

  struct TakenJump {
    std::uint32_t from_pc;
    std::uint32_t to_pc;
  };

  void on_instruction(int /*depth*/, const Address& code_addr,
                      std::uint32_t pc, std::uint8_t byte,
                      std::span<const U256> stack) override {
    if (!(code_addr == contract_)) return;
    executed_pcs_.push_back(pc);
    const auto op = static_cast<Opcode>(byte);
    if (op == Opcode::JUMP) {
      if (!stack.empty() && stack.back().fits_u64()) {
        taken_.push_back(
            {pc, static_cast<std::uint32_t>(stack.back().low64())});
      }
    } else if (op == Opcode::JUMPI) {
      if (stack.size() >= 2 && !stack[stack.size() - 2].is_zero() &&
          stack.back().fits_u64()) {
        taken_.push_back(
            {pc, static_cast<std::uint32_t>(stack.back().low64())});
      }
    }
  }

  const std::vector<TakenJump>& taken() const noexcept { return taken_; }
  const std::vector<std::uint32_t>& executed_pcs() const noexcept {
    return executed_pcs_;
  }

 private:
  Address contract_;
  std::vector<TakenJump> taken_;
  std::vector<std::uint32_t> executed_pcs_;
};

struct CorpusCase {
  const char* name;
  std::function<Address(Blockchain&, const Address&)> deploy;
};

const std::vector<CorpusCase>& corpus() {
  static const std::vector<CorpusCase> kCases = [] {
    auto logic = [](Blockchain& c, const Address& d) {
      return c.deploy_runtime(d, ContractFactory::token_contract(777));
    };
    std::vector<CorpusCase> cases;
    cases.push_back({"minimal", [=](Blockchain& c, const Address& d) {
                       return c.deploy_runtime(
                           d, ContractFactory::minimal_proxy(logic(c, d)));
                     }});
    cases.push_back({"eip1967", [=](Blockchain& c, const Address& d) {
                       const auto l = logic(c, d);
                       const auto p = c.deploy_runtime(
                           d, ContractFactory::eip1967_proxy());
                       c.set_storage(p, ContractFactory::eip1967_slot(),
                                     l.to_word());
                       return p;
                     }});
    cases.push_back({"eip1822", [=](Blockchain& c, const Address& d) {
                       const auto l = logic(c, d);
                       const auto p = c.deploy_runtime(
                           d, ContractFactory::eip1822_proxy());
                       c.set_storage(p, ContractFactory::eip1822_slot(),
                                     l.to_word());
                       return p;
                     }});
    cases.push_back({"slot0", [=](Blockchain& c, const Address& d) {
                       const auto l = logic(c, d);
                       const auto p = c.deploy_runtime(
                           d, ContractFactory::slot_proxy(U256{0}));
                       c.set_storage(p, U256{0}, l.to_word());
                       return p;
                     }});
    cases.push_back({"transparent", [=](Blockchain& c, const Address& d) {
                       const auto l = logic(c, d);
                       const auto p = c.deploy_runtime(
                           d, ContractFactory::transparent_proxy());
                       c.set_storage(p, ContractFactory::eip1967_slot(),
                                     l.to_word());
                       return p;
                     }});
    cases.push_back({"beacon", [=](Blockchain& c, const Address& d) {
                       const auto l = logic(c, d);
                       const auto b =
                           c.deploy_runtime(d, ContractFactory::beacon());
                       c.set_storage(b, U256{0}, l.to_word());
                       const auto p = c.deploy_runtime(
                           d, ContractFactory::beacon_proxy());
                       c.set_storage(
                           p, evm::to_u256(crypto::eip1967_beacon_slot()),
                           b.to_word());
                       return p;
                     }});
    cases.push_back({"diamond", [](Blockchain& c, const Address& d) {
                       return c.deploy_runtime(d,
                                               ContractFactory::diamond_proxy());
                     }});
    cases.push_back({"honeypot", [](Blockchain& c, const Address& d) {
                       const std::uint32_t lure =
                           crypto::selector_u32("free_ether_withdrawal()");
                       const auto l = c.deploy_runtime(
                           d, ContractFactory::honeypot_logic(lure));
                       const auto p = c.deploy_runtime(
                           d, ContractFactory::honeypot_proxy(U256{1}, lure));
                       c.set_storage(p, U256{1}, l.to_word());
                       return p;
                     }});
    cases.push_back({"audius", [](Blockchain& c, const Address& d) {
                       const auto l = c.deploy_runtime(
                           d, ContractFactory::audius_style_logic());
                       const auto p = c.deploy_runtime(
                           d, ContractFactory::audius_style_proxy());
                       c.set_storage(p, U256{1}, l.to_word());
                       return p;
                     }});
    cases.push_back({"token", [](Blockchain& c, const Address& d) {
                       return c.deploy_runtime(
                           d, ContractFactory::token_contract(9));
                     }});
    cases.push_back({"garbage-push4", [](Blockchain& c, const Address& d) {
                       return c.deploy_runtime(
                           d, ContractFactory::garbage_push4_contract());
                     }});
    cases.push_back({"library-user", [](Blockchain& c, const Address& d) {
                       const auto lib = c.deploy_runtime(
                           d, ContractFactory::math_library());
                       return c.deploy_runtime(
                           d, ContractFactory::library_user(lib));
                     }});
    cases.push_back({"math-library", [](Blockchain& c, const Address& d) {
                       return c.deploy_runtime(d,
                                               ContractFactory::math_library());
                     }});
    cases.push_back({"infinite-loop", [](Blockchain& c, const Address& d) {
                       return c.deploy_runtime(
                           d, ContractFactory::infinite_loop_contract());
                     }});
    cases.push_back({"deep-recursion", [](Blockchain& c, const Address& d) {
                       return c.deploy_runtime(
                           d, ContractFactory::deep_recursion_contract());
                     }});
    cases.push_back({"push-data-dc", [](Blockchain& c, const Address& d) {
                       return c.deploy_runtime(
                           d,
                           ContractFactory::push_data_delegatecall_contract());
                     }});
    cases.push_back({"dead-dc", [](Blockchain& c, const Address& d) {
                       return c.deploy_runtime(
                           d, ContractFactory::dead_delegatecall_contract());
                     }});
    cases.push_back({"computed-jump", [](Blockchain& c, const Address& d) {
                       const auto l = c.deploy_runtime(
                           d, ContractFactory::token_contract(3));
                       const auto p = c.deploy_runtime(
                           d, ContractFactory::computed_jump_contract(U256{7}));
                       c.set_storage(p, U256{7}, l.to_word());
                       return p;
                     }});
    return cases;
  }();
  return kCases;
}

class CorpusAgreementTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CorpusAgreementTest, RecoveredEdgesCoverInterpreterTakenJumps) {
  const CorpusCase& c = corpus()[GetParam()];
  Blockchain chain;
  const Address deployer = Address::from_label("static.corpus.deployer");
  const Address target = c.deploy(chain, deployer);
  const Bytes code = chain.get_code(target);
  ASSERT_FALSE(code.empty()) << c.name;
  const evm::Disassembly dis(code);
  const Cfg cfg = static_analysis::recover_cfg(dis);

  // Drive the same probe emulation the detector runs, recording the jumps
  // actually taken inside the tested contract's own code.
  evm::Bytes probe(4 + 32, 0);
  const std::uint32_t selector =
      core::ProxyDetector::craft_probe_selector(target, dis);
  probe[0] = static_cast<std::uint8_t>(selector >> 24);
  probe[1] = static_cast<std::uint8_t>(selector >> 16);
  probe[2] = static_cast<std::uint8_t>(selector >> 8);
  probe[3] = static_cast<std::uint8_t>(selector);

  evm::OverlayHost overlay(chain);
  JumpRecorder recorder(target);
  evm::InterpreterConfig interp_config;
  interp_config.step_limit = 200'000;
  interp_config.max_call_depth = 64;
  evm::Interpreter interp(overlay, interp_config);
  interp.set_observer(&recorder);

  evm::CallParams params;
  params.code_address = target;
  params.storage_address = target;
  params.caller = Address::from_label("proxion.prober");
  params.origin = params.caller;
  params.calldata = probe;
  params.gas = 5'000'000;
  (void)interp.execute(params);

  ASSERT_FALSE(recorder.executed_pcs().empty()) << c.name;

  for (const auto& jump : recorder.taken()) {
    const auto from = cfg.block_containing(jump.from_pc);
    ASSERT_TRUE(from.has_value()) << c.name;
    if (!dis.is_jumpdest(jump.to_pc)) continue;  // the jump faulted
    const auto to = cfg.block_containing(jump.to_pc);
    ASSERT_TRUE(to.has_value()) << c.name;
    EXPECT_TRUE(cfg.blocks[*from].unresolved_jump ||
                cfg.has_edge(*from, *to))
        << c.name << ": taken jump " << jump.from_pc << " -> " << jump.to_pc
        << " missing from the recovered CFG";
  }

  // Soundness of reachability: while the CFG claims completeness, every pc
  // the interpreter executed must sit in a block the analysis reached.
  if (cfg.complete) {
    for (const std::uint32_t pc : recorder.executed_pcs()) {
      const auto b = cfg.block_containing(pc);
      ASSERT_TRUE(b.has_value()) << c.name;
      EXPECT_TRUE(cfg.blocks[*b].reachable)
          << c.name << ": executed pc " << pc
          << " lies in a statically-dead block";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCorpusCases, CorpusAgreementTest,
    ::testing::Range<std::size_t>(0, corpus().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = corpus()[info.param].name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
