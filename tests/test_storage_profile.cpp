// The CRUSH-style storage profiler (§5.2): slot recovery, width inference
// from masks / CALLER comparisons / bool tests, caller-guard attribution,
// write-value provenance, and mapping-slot exclusion.
#include <gtest/gtest.h>

#include "core/storage_profile.h"
#include "datagen/assembler.h"
#include "datagen/contract_factory.h"

namespace {

using namespace proxion::core;
using proxion::datagen::Assembler;
using proxion::datagen::BodyKind;
using proxion::datagen::ContractFactory;
using proxion::evm::Opcode;
using proxion::evm::U256;

const StorageAccess* find_access(const StorageProfile& p, const U256& slot,
                                 bool is_write) {
  for (const auto& a : p.accesses) {
    if (a.slot == slot && a.is_write == is_write) return &a;
  }
  return nullptr;
}

TEST(StorageProfile, AddressReadWidthFromMask) {
  const auto profile = profile_storage(ContractFactory::plain_contract(
      {{.prototype = "owner()", .body = BodyKind::kReturnStorageAddress,
        .slot = U256{0}}}));
  const auto* read = find_access(profile, U256{0}, false);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->width, 20);  // masked with 2^160-1
}

TEST(StorageProfile, BoolReadWidthFromByteMask) {
  const auto profile = profile_storage(ContractFactory::plain_contract(
      {{.prototype = "flag()", .body = BodyKind::kReturnStorageBool,
        .slot = U256{0}}}));
  const auto* read = find_access(profile, U256{0}, false);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->width, 1);
}

TEST(StorageProfile, UnmaskedReadIsFullWidth) {
  const auto profile = profile_storage(ContractFactory::plain_contract(
      {{.prototype = "value()", .body = BodyKind::kReturnStorageWord,
        .slot = U256{3}}}));
  const auto* read = find_access(profile, U256{3}, false);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->width, 32);
}

TEST(StorageProfile, CallerWriteIsAddressWidthAndCallerOrigin) {
  const auto profile = profile_storage(ContractFactory::plain_contract(
      {{.prototype = "claim()", .body = BodyKind::kStoreCaller,
        .slot = U256{7}}}));
  const auto* write = find_access(profile, U256{7}, true);
  ASSERT_NE(write, nullptr);
  EXPECT_EQ(write->width, 20);
  EXPECT_EQ(write->value_origin, ValueOrigin::kCaller);
  EXPECT_FALSE(write->guarded_by_caller);
}

TEST(StorageProfile, MaskedArgWriteIsAddressWidth) {
  const auto profile = profile_storage(ContractFactory::plain_contract(
      {{.prototype = "set(address)", .body = BodyKind::kStoreArgAddress,
        .slot = U256{2}}}));
  const auto* write = find_access(profile, U256{2}, true);
  ASSERT_NE(write, nullptr);
  EXPECT_EQ(write->width, 20);
  EXPECT_EQ(write->value_origin, ValueOrigin::kCalldata);
}

TEST(StorageProfile, GuardedWriteDetected) {
  const auto profile = profile_storage(ContractFactory::plain_contract(
      {{.prototype = "upgradeTo(address)",
        .body = BodyKind::kGuardedStoreArgAddress, .slot = U256{1},
        .aux = U256{0}}}));
  // The owner slot read is caller-compared (sensitive)...
  const auto* owner_read = find_access(profile, U256{0}, false);
  ASSERT_NE(owner_read, nullptr);
  EXPECT_TRUE(owner_read->caller_compared);
  EXPECT_EQ(owner_read->width, 20);
  // ... and the write into the implementation slot is guarded.
  const auto* impl_write = find_access(profile, U256{1}, true);
  ASSERT_NE(impl_write, nullptr);
  EXPECT_TRUE(impl_write->guarded_by_caller);
  EXPECT_TRUE(profile.is_sensitive(U256{0}));
  EXPECT_FALSE(profile.has_unguarded_write(U256{1}));
}

TEST(StorageProfile, AudiusLogicShowsTheBugSignature) {
  const auto profile =
      profile_storage(ContractFactory::audius_style_logic());
  // Listing 2's signature: a 1-byte read of slot 0 plus an *unguarded*
  // 20-byte caller write of the same slot.
  EXPECT_EQ(profile.width_of(U256{0}), std::uint8_t{1});
  EXPECT_TRUE(profile.has_unguarded_write(U256{0}));
  EXPECT_TRUE(profile.is_sensitive(U256{0}));
  const auto* write = find_access(profile, U256{0}, true);
  ASSERT_NE(write, nullptr);
  EXPECT_EQ(write->value_origin, ValueOrigin::kCaller);
}

TEST(StorageProfile, AudiusProxyReadsSlotZeroAsAddress) {
  const auto profile =
      profile_storage(ContractFactory::audius_style_proxy());
  EXPECT_EQ(profile.width_of(U256{0}), std::uint8_t{20});
}

TEST(StorageProfile, MappingAccessesAreExcluded) {
  const auto profile =
      profile_storage(ContractFactory::diamond_proxy());
  // The facet lookup SLOADs a keccak-derived slot: excluded but counted.
  EXPECT_GE(profile.hashed_slot_accesses, 1u);
  for (const auto& a : profile.accesses) {
    EXPECT_NE(a.slot, U256{});  // no bogus concrete slot-0 record from it
  }
}

TEST(StorageProfile, MappingElementCallerCheckGuardsTheWrite) {
  // if (msg.sender == admins[calldataload(4)]) sstore(1, calldataload(36)),
  // with `admins` a mapping at slot 2. The loaded element stays a typed
  // value, so its CALLER comparison guards the slot-1 write: an
  // access-controlled write must not count as unguarded.
  Assembler a;
  a.push(U256{4}, 1).op(Opcode::CALLDATALOAD).push(U256{0}, 1);
  a.op(Opcode::MSTORE);
  a.push(U256{2}, 1).push(U256{0x20}, 1).op(Opcode::MSTORE);
  a.push(U256{0x40}, 1).push(U256{0}, 1).op(Opcode::KECCAK256);
  a.op(Opcode::SLOAD).op(Opcode::CALLER).op(Opcode::EQ);
  a.push_label("ok").op(Opcode::JUMPI);
  a.push(U256{0}, 1).push(U256{0}, 1).op(Opcode::REVERT);
  a.jumpdest("ok");
  a.push(U256{36}, 1).op(Opcode::CALLDATALOAD).push(U256{1}, 1);
  a.op(Opcode::SSTORE).op(Opcode::STOP);
  const auto profile = profile_storage(a.assemble());

  const auto* write = find_access(profile, U256{1}, true);
  ASSERT_NE(write, nullptr);
  EXPECT_TRUE(write->guarded_by_caller);
  EXPECT_EQ(write->value_origin, ValueOrigin::kCalldata);
  EXPECT_FALSE(profile.has_unguarded_write(U256{1}));
  // The element read is a slot family, not a static slot.
  EXPECT_EQ(profile.hashed_slot_accesses, 1u);
  EXPECT_EQ(profile.accesses.size(), 1u);
}

TEST(StorageProfile, ProxyFallbackReadsImplSlotAsAddress) {
  const auto profile = profile_storage(
      ContractFactory::slot_proxy(U256{0}));
  const auto* read = find_access(profile, U256{0}, false);
  ASSERT_NE(read, nullptr);
  EXPECT_FALSE(read->is_write);
  EXPECT_EQ(read->width, 20);  // sload masked to address width
}

TEST(StorageProfile, Eip1967SlotIsConcreteHugeConstant) {
  const auto profile = profile_storage(ContractFactory::eip1967_proxy());
  EXPECT_TRUE(profile.width_of(ContractFactory::eip1967_slot()).has_value());
}

TEST(StorageProfile, SlotsAndWidthOfHelpers) {
  const auto profile = profile_storage(ContractFactory::plain_contract({
      {.prototype = "a()", .body = BodyKind::kReturnStorageBool,
       .slot = U256{0}},
      {.prototype = "b()", .body = BodyKind::kReturnStorageWord,
       .slot = U256{1}},
  }));
  const auto slots = profile.slots();
  EXPECT_EQ(slots.size(), 2u);
  EXPECT_EQ(profile.width_of(U256{0}), std::uint8_t{1});
  EXPECT_EQ(profile.width_of(U256{1}), std::uint8_t{32});
  EXPECT_EQ(profile.width_of(U256{999}), std::nullopt);
}

TEST(StorageProfile, PackedReadAtOffsetRecovered) {
  // (sload(0) >> 8) & 0xff: the Listing-2 `initializing` flag at byte 1.
  const auto profile = profile_storage(ContractFactory::plain_contract(
      {{.prototype = "initializing()",
        .body = BodyKind::kReturnStorageBoolAtOffset, .slot = U256{0},
        .aux = U256{1}}}));
  const auto* read = find_access(profile, U256{0}, false);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->offset, 1);
  EXPECT_EQ(read->width, 1);
}

TEST(StorageProfile, OffsetZeroPackedReadIsPlainBool) {
  const auto profile = profile_storage(ContractFactory::plain_contract(
      {{.prototype = "flag()", .body = BodyKind::kReturnStorageBoolAtOffset,
        .slot = U256{0}, .aux = U256{0}}}));
  const auto* read = find_access(profile, U256{0}, false);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->offset, 0);
  EXPECT_EQ(read->width, 1);
}

TEST(StorageProfile, RangesOfReportsDistinctViews) {
  const auto profile = profile_storage(ContractFactory::plain_contract({
      {.prototype = "a()", .body = BodyKind::kReturnStorageBool,
       .slot = U256{0}},
      {.prototype = "b()", .body = BodyKind::kReturnStorageBoolAtOffset,
       .slot = U256{0}, .aux = U256{1}},
      {.prototype = "c()", .body = BodyKind::kReturnStorageAddress,
       .slot = U256{0}},
  }));
  const auto ranges = profile.ranges_of(U256{0});
  EXPECT_EQ(ranges.size(), 3u);  // [0,1), [1,1), [0,20)
}

TEST(StorageProfile, AccessOverlapSemantics) {
  StorageAccess addr;   // bytes [0, 20)
  addr.slot = U256{0};
  addr.offset = 0;
  addr.width = 20;
  StorageAccess flag_inside;   // byte [1, 2)
  flag_inside.slot = U256{0};
  flag_inside.offset = 1;
  flag_inside.width = 1;
  StorageAccess flag_outside;  // byte [20, 21): packs NEXT to the address
  flag_outside.slot = U256{0};
  flag_outside.offset = 20;
  flag_outside.width = 1;
  StorageAccess other_slot = flag_inside;
  other_slot.slot = U256{7};

  EXPECT_TRUE(addr.overlaps(flag_inside));
  EXPECT_TRUE(flag_inside.overlaps(addr));
  EXPECT_FALSE(addr.overlaps(flag_outside));
  EXPECT_FALSE(addr.overlaps(other_slot));
  EXPECT_FALSE(addr.same_range(flag_inside));
  EXPECT_TRUE(addr.same_range(addr));
}

TEST(StorageProfile, PackedWriteIdiomRecovered) {
  // sstore(slot, (sload & ~(0xff<<8)) | (1<<8)): a bool write at byte 1.
  const auto profile = profile_storage(ContractFactory::plain_contract(
      {{.prototype = "setInitializing()",
        .body = BodyKind::kStoreBoolPackedAt, .slot = U256{0},
        .aux = U256{1}}}));
  const auto* write = find_access(profile, U256{0}, true);
  ASSERT_NE(write, nullptr);
  EXPECT_EQ(write->offset, 1);
  EXPECT_EQ(write->width, 1);
  EXPECT_EQ(write->value_origin, ValueOrigin::kConstant);
  // The RMW's carrier read is refined to the same range, not 32 bytes.
  const auto* read = find_access(profile, U256{0}, false);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->offset, 1);
  EXPECT_EQ(read->width, 1);
}

TEST(StorageProfile, PackedWriteAtOffsetZero) {
  const auto profile = profile_storage(ContractFactory::plain_contract(
      {{.prototype = "setFlag()", .body = BodyKind::kStoreBoolPackedAt,
        .slot = U256{3}, .aux = U256{0}}}));
  const auto* write = find_access(profile, U256{3}, true);
  ASSERT_NE(write, nullptr);
  EXPECT_EQ(write->offset, 0);
  EXPECT_EQ(write->width, 1);
}

TEST(StorageProfile, PackedWriteCompatibilityInCollisionTerms) {
  // A packed bool write at byte 20 does NOT overlap an address at [0,20).
  StorageAccess addr;
  addr.slot = U256{0};
  addr.width = 20;
  StorageAccess packed;
  packed.slot = U256{0};
  packed.offset = 20;
  packed.width = 1;
  packed.is_write = true;
  EXPECT_FALSE(addr.overlaps(packed));
}

TEST(StorageProfile, EmptyCodeYieldsEmptyProfile) {
  const auto profile = profile_storage(proxion::evm::Bytes{});
  EXPECT_TRUE(profile.accesses.empty());
  EXPECT_TRUE(profile.slots().empty());
}

}  // namespace
