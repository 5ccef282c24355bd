// Storage-layout inference (src/static/layout): static slots with packed
// sub-word members, keccak-derived mapping/array slot families, guard and
// provenance facts, the reliability contract, and the source-free
// family-collision mode's equivalence with the declared-layout mode.
#include <gtest/gtest.h>

#include "chain/blockchain.h"
#include "core/storage_collision.h"
#include "core/storage_profile.h"
#include "datagen/assembler.h"
#include "datagen/contract_factory.h"
#include "evm/disassembler.h"
#include "sourcemeta/source.h"
#include "static/layout.h"

namespace {

using namespace proxion;
using chain::Blockchain;
using core::StorageCollisionConfig;
using core::StorageCollisionDetector;
using datagen::Assembler;
using datagen::BodyKind;
using datagen::ContractFactory;
using evm::Address;
using evm::Bytes;
using evm::Opcode;
using evm::U256;
using static_analysis::AbstractValue;
using static_analysis::SlotFamily;
using static_analysis::StorageLayout;
using static_analysis::WriteOrigin;

StorageLayout infer(const Bytes& code) {
  return static_analysis::infer_layout(evm::Disassembly(code));
}

const SlotFamily* mapping_family(const StorageLayout& layout,
                                 std::uint64_t base) {
  return layout.family(U256{base}, /*depth=*/1, /*path=*/1);
}

// ---------------------------------------------------------------------------
// Static slots and packed members

TEST(LayoutInference, TokenContractStaticSlots) {
  const StorageLayout layout = infer(ContractFactory::token_contract(7));
  ASSERT_TRUE(layout.cfg_complete);
  EXPECT_EQ(layout.unresolved_accesses, 0u);
  EXPECT_TRUE(layout.reliable());
  // owner() reads slot 0 as an address; balanceOf/transfer hit slot 2 whole.
  EXPECT_TRUE(layout.admits_slot(U256{0}));
  EXPECT_TRUE(layout.admits_slot(U256{2}));
  bool found_address_view = false;
  for (const auto& m : layout.members) {
    if (m.slot == U256{0} && m.offset == 0 && m.width == 20) {
      found_address_view = true;
    }
  }
  EXPECT_TRUE(found_address_view) << layout.to_string();
}

TEST(LayoutInference, PackedConfigRecoversSubWordMembers) {
  const StorageLayout layout = infer(ContractFactory::packed_config_contract());
  ASSERT_TRUE(layout.reliable()) << layout.to_string();
  // paused() reads (sload(0) >> 160) & 0xff: byte 20, width 1.
  bool found_bool = false;
  bool found_address = false;
  for (const auto& m : layout.members) {
    if (m.slot != U256{0}) continue;
    if (m.offset == 20 && m.width == 1) found_bool = true;
    if (m.offset == 0 && m.width == 20) found_address = true;
  }
  EXPECT_TRUE(found_bool) << layout.to_string();
  EXPECT_TRUE(found_address) << layout.to_string();
  // values(uint256) walks the dynamic array rooted at slot 1.
  EXPECT_NE(layout.family(U256{1}, 1, /*path=*/0), nullptr)
      << layout.to_string();
}

TEST(LayoutInference, GuardFactsOnPackedWrite) {
  const StorageLayout layout = infer(ContractFactory::packed_config_contract());
  // pause() writes byte 20 of slot 0 with no caller guard; setOwner() writes
  // the address range behind a CALLER-equality check.
  bool packed_write_unguarded = false;
  bool address_caller_compared = false;
  for (const auto& m : layout.members) {
    if (m.slot != U256{0}) continue;
    if (m.offset == 20 && m.width == 1 && m.written && m.unguarded_write) {
      packed_write_unguarded = true;
    }
    if (m.width == 20 && m.caller_compared) address_caller_compared = true;
  }
  EXPECT_TRUE(packed_write_unguarded) << layout.to_string();
  EXPECT_TRUE(address_caller_compared) << layout.to_string();
}

// ---------------------------------------------------------------------------
// Keccak slot families

TEST(LayoutInference, MappingTokenRecoversFamilies) {
  const StorageLayout layout =
      infer(ContractFactory::mapping_token_contract(3));
  ASSERT_TRUE(layout.reliable()) << layout.to_string();
  // balances: mapping at slot 2, calldata-derived key, read and written.
  const SlotFamily* balances = mapping_family(layout, 2);
  ASSERT_NE(balances, nullptr) << layout.to_string();
  EXPECT_EQ(balances->key_origin, AbstractValue::KeyOrigin::kCalldata);
  EXPECT_TRUE(balances->read);
  EXPECT_TRUE(balances->written);
  EXPECT_TRUE(balances->unguarded_write);
  // approvals: mapping at slot 3, caller-derived key (origin stays unknown —
  // the lattice only distinguishes const/calldata keys).
  const SlotFamily* approvals = mapping_family(layout, 3);
  ASSERT_NE(approvals, nullptr) << layout.to_string();
  EXPECT_TRUE(approvals->written);
}

TEST(LayoutInference, DiamondSelectorMappingIsAFamily) {
  const StorageLayout layout = infer(ContractFactory::diamond_proxy());
  const SlotFamily* facets =
      layout.family(ContractFactory::diamond_base_slot(), 1, /*path=*/1);
  ASSERT_NE(facets, nullptr) << layout.to_string();
  EXPECT_TRUE(facets->read);
  EXPECT_FALSE(facets->written);
}

TEST(LayoutInference, FamilyElementSlotsAreAdmittedNowhereStatically) {
  // Family membership is not static-slot membership: keccak image slots must
  // not appear as members (they are unbounded), only as the family.
  const StorageLayout layout =
      infer(ContractFactory::mapping_token_contract(1));
  for (const auto& m : layout.members) {
    EXPECT_LT(m.slot, U256{1} << U256{32}) << layout.to_string();
  }
}

// ---------------------------------------------------------------------------
// Reliability posture

TEST(LayoutInference, ComputedJumpContractIsUnreliable) {
  // The calldata-derived computed jump defeats CFG recovery; the layout must
  // say so instead of making claims it cannot back.
  const StorageLayout layout =
      infer(ContractFactory::computed_jump_contract(U256{0}));
  EXPECT_FALSE(layout.reliable());
}

TEST(LayoutInference, UnresolvedSlotDisablesReliability) {
  // sstore(calldataload(4), 1): the slot is attacker-chosen — no layout can
  // cover it, so the access must count as unresolved.
  Assembler a;
  a.push(U256{1}, 1);
  a.push(U256{4}, 1).op(Opcode::CALLDATALOAD);
  a.op(Opcode::SSTORE).op(Opcode::STOP);
  const StorageLayout layout = infer(a.assemble());
  EXPECT_GT(layout.unresolved_accesses, 0u);
  EXPECT_FALSE(layout.reliable());
}

TEST(LayoutInference, EmptyCodeIsReliablyEmpty) {
  const StorageLayout layout = infer(Bytes{});
  EXPECT_TRUE(layout.members.empty());
  EXPECT_TRUE(layout.families.empty());
  EXPECT_TRUE(layout.reliable());
}

// ---------------------------------------------------------------------------
// Satellite 1 regression: a packed address read typed by a CALLER compare
// must carry the SHR-derived byte offset, not claim bytes [0, 20).

TEST(StorageProfileRegression, ShiftedCallerCompareKeepsPackedOffset) {
  // if (address(uint160(sload(0) >> 64)) == msg.sender) { sstore(1, 1) }
  Assembler a;
  a.push(U256{0}, 1).op(Opcode::SLOAD);
  a.push(U256{64}, 1).op(Opcode::SHR);
  a.op(Opcode::CALLER).op(Opcode::EQ);
  a.push_label("ok").op(Opcode::JUMPI);
  a.push(U256{0}, 1).push(U256{0}, 1).op(Opcode::REVERT);
  a.jumpdest("ok");
  a.push(U256{1}, 1).push(U256{1}, 1).op(Opcode::SSTORE).op(Opcode::STOP);
  const Bytes code = a.assemble();

  const core::StorageProfile profile =
      core::profile_storage(evm::Disassembly(code));
  bool found = false;
  for (const auto& acc : profile.accesses) {
    if (acc.slot == U256{0} && !acc.is_write && acc.caller_compared) {
      EXPECT_EQ(acc.offset, 8u);   // 64 bits = 8 bytes up
      EXPECT_EQ(acc.width, 20u);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // The inferred layout carries the same refined view.
  const StorageLayout layout = infer(code);
  bool member_found = false;
  for (const auto& m : layout.members) {
    if (m.slot == U256{0} && m.offset == 8 && m.width == 20 &&
        m.caller_compared) {
      member_found = true;
    }
  }
  EXPECT_TRUE(member_found) << layout.to_string();
}

TEST(StorageProfileRegression, FullWordReadOverlapsEveryPackedMember) {
  // An unmasked 32-byte read must overlap both a low-packed bool and a
  // high-packed address — the misleading-offset bug reported overlap with
  // only one of them.
  core::StorageAccess whole{.slot = U256{0}, .width = 32, .offset = 0};
  core::StorageAccess low_bool{.slot = U256{0}, .width = 1, .offset = 0};
  core::StorageAccess high_addr{.slot = U256{0}, .width = 20, .offset = 12};
  EXPECT_TRUE(whole.overlaps(low_bool));
  EXPECT_TRUE(whole.overlaps(high_addr));
  EXPECT_FALSE(low_bool.overlaps(high_addr));
}

// ---------------------------------------------------------------------------
// Source-free family collision mode

sourcemeta::SourceRecord mapping_token_record() {
  sourcemeta::SourceRecord rec;
  rec.contract_name = "MappingToken";
  rec.functions = {{.prototype = "totalSupply()"},
                   {.prototype = "balanceOf(address)"},
                   {.prototype = "transfer(address,uint256)"},
                   {.prototype = "approve(uint256)"},
                   {.prototype = "owner()"}};
  rec.storage = {{.name = "owner", .type = "address"},
                 {.name = "reserved", .type = "uint256"},
                 {.name = "balances", .type = "mapping(address=>uint256)"},
                 {.name = "approvals", .type = "mapping(address=>uint256)"}};
  sourcemeta::layout_storage(rec.storage);
  return rec;
}

TEST(FamilyCollision, DeclaredAndInferredFamiliesShareIdentity) {
  const auto declared =
      StorageCollisionDetector::declared_families(mapping_token_record());
  const StorageLayout layout =
      infer(ContractFactory::mapping_token_contract(2));
  const auto inferred = StorageCollisionDetector::inferred_families(layout);

  // Every declared mapping identity is recovered from bytecode alone.
  for (const auto& d : declared) {
    const bool matched = std::any_of(
        inferred.begin(), inferred.end(),
        [&](const core::FamilyView& i) { return d.same_identity(i); });
    EXPECT_TRUE(matched) << "declared base slot not inferred: "
                         << layout.to_string();
  }
}

TEST(FamilyCollision, SourceFreeModeMatchesSourceAttachedVerdict) {
  Blockchain chain;
  const Address deployer = Address::from_label("layout.deployer");
  const Address proxy_addr =
      chain.deploy_runtime(deployer, ContractFactory::mapping_token_contract(1));
  const Address logic_addr =
      chain.deploy_runtime(deployer, ContractFactory::mapping_token_contract(9));
  const Bytes proxy_code = chain.get_code(proxy_addr);
  const Bytes logic_code = chain.get_code(logic_addr);

  StorageCollisionConfig config;
  config.compare_families = true;

  // Source-attached: both sides have declared layouts.
  sourcemeta::SourceRepository sources;
  sources.publish(proxy_addr, mapping_token_record());
  sources.publish(logic_addr, mapping_token_record());
  StorageCollisionDetector attached(chain, config, &sources);
  const auto attached_result =
      attached.detect(proxy_addr, proxy_code, logic_addr, logic_code);
  EXPECT_TRUE(attached_result.family_checked);
  EXPECT_FALSE(attached_result.family_source_free);

  // Source-free: same pair, sourcemeta detached.
  StorageCollisionDetector source_free(chain, config, nullptr);
  const auto free_result =
      source_free.detect(proxy_addr, proxy_code, logic_addr, logic_code);
  EXPECT_TRUE(free_result.family_checked);
  EXPECT_TRUE(free_result.family_source_free);

  // Core contract of the source-free mode: bit-identical verdicts.
  EXPECT_EQ(attached_result.has_family_collision(),
            free_result.has_family_collision());
  EXPECT_EQ(attached_result.has_collision(), free_result.has_collision());
}

TEST(FamilyCollision, NoFindingWhenFamiliesAgree) {
  Blockchain chain;
  const Address deployer = Address::from_label("layout.deployer2");
  const Address a_addr =
      chain.deploy_runtime(deployer, ContractFactory::mapping_token_contract(4));
  const Address b_addr =
      chain.deploy_runtime(deployer, ContractFactory::mapping_token_contract(8));
  const Bytes a_code = chain.get_code(a_addr);
  const Bytes b_code = chain.get_code(b_addr);

  StorageCollisionConfig config;
  config.compare_families = true;
  StorageCollisionDetector detector(chain, config, nullptr);
  const auto result = detector.detect(a_addr, a_code, b_addr, b_code);
  EXPECT_TRUE(result.family_checked);
  EXPECT_FALSE(result.has_family_collision());
}

}  // namespace
