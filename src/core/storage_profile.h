// CRUSH-style storage profile (§5.2): for every SLOAD / SSTORE with a
// constant slot, the *byte width* the contract treats the slot as (a bool
// read masks with 0xff, an address read masks with 2^160-1 or compares
// against CALLER, ...), whether the access sits behind a caller-equality
// guard, and where written values come from. Two contracts disagreeing on a
// slot's width is the storage-collision signal.
//
// The profile is a projection: the static-slot accesses of
// static_analysis::scan_storage(), the same block-local scan storage-layout
// inference runs. Mapping and array element accesses (slot families) are
// left out, like CRUSH leaves out non-concrete slots.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "evm/disassembler.h"
#include "evm/types.h"
#include "static/layout.h"

namespace proxion::core {

using ValueOrigin = static_analysis::WriteOrigin;

struct StorageAccess {
  evm::U256 slot;
  bool is_write = false;
  /// Inferred byte width of the variable at this access (1..32). Reads
  /// default to 32 unless a narrowing mask or typed comparison is observed.
  std::uint8_t width = 32;
  /// Byte offset inside the slot (Solidity packing): an `(sload >> 8k) &
  /// mask` idiom reads the packed variable starting at byte k (counted from
  /// the slot's least-significant end). 0 for unpacked accesses.
  std::uint8_t offset = 0;

  /// Does this access's byte range [offset, offset+width) overlap `other`'s
  /// on the same slot?
  bool overlaps(const StorageAccess& other) const noexcept {
    return slot == other.slot && offset < other.offset + other.width &&
           other.offset < offset + width;
  }
  /// Same byte range?
  bool same_range(const StorageAccess& other) const noexcept {
    return offset == other.offset && width == other.width;
  }
  /// The access's value is compared against CALLER somewhere downstream —
  /// the slot takes part in an access-control decision (CRUSH's "sensitive
  /// slot" notion).
  bool caller_compared = false;
  /// This write executes only on the taken edge of a caller-equality guard.
  bool guarded_by_caller = false;
  ValueOrigin value_origin = ValueOrigin::kUnknown;  // writes only
  std::uint32_t pc = 0;
};

struct StorageProfile {
  std::vector<StorageAccess> accesses;
  /// SLOAD/SSTORE sites whose slot is a KECCAK256 value (mapping / dynamic
  /// array elements, resolved to a slot family or not) — excluded from
  /// pairwise comparison, like CRUSH excludes non-concrete slots.
  std::uint32_t hashed_slot_accesses = 0;

  /// All concrete slots read or written.
  std::vector<evm::U256> slots() const;
  /// Narrowest width observed for a slot (the declared variable's width).
  std::optional<std::uint8_t> width_of(const evm::U256& slot) const;
  /// Every distinct (offset, width) byte range accessed on a slot.
  std::vector<std::pair<std::uint8_t, std::uint8_t>> ranges_of(
      const evm::U256& slot) const;
  bool is_sensitive(const evm::U256& slot) const;
  bool has_unguarded_write(const evm::U256& slot) const;
};

/// Projects static_analysis::scan_storage(dis) onto its static slots.
StorageProfile profile_storage(const evm::Disassembly& dis);
StorageProfile profile_storage(evm::BytesView code);

}  // namespace proxion::core
