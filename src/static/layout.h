// Bytecode-only storage-layout inference (ROADMAP item 3, after Dedaub's
// "Precise Static Identification of Ethereum Storage Variables"): recovers a
// per-contract StorageLayout — static slots with packed sub-word member
// ranges, and keccak-derived mapping/dynamic-array slot families — from the
// disassembly plus the abstract interpreter's storage facts (cfg.h).
//
// Two evidence streams are unioned:
//   * scan_storage(), the repository's one storage-access scanner: a
//     block-local mask/shift scanner (a bool read masks 0xff, an address
//     masks 2^160-1 or compares against CALLER, packed writes carve a hole)
//     with an abstract memory so `keccak256(key ++ base_slot)` derivations
//     resolve to slot families instead of being dropped. Its static-slot
//     accesses are also core::StorageProfile (§5.2's CRUSH-style widths);
//   * the CFG's per-site StorageFacts, which are path-sensitive and catch
//     cross-block slot computations the scanner misses.
//
// Soundness posture mirrors the PR-4 oracle pattern: the layout makes
// contradictable claims only while `reliable()` holds — the CFG must be
// complete and every reachable SLOAD/SSTORE must have resolved to a static
// slot or a slot family. Anything weaker and downstream consumers (the
// kMismatchLayout* cross-check, the source-free collision mode) must treat
// the contract as uncovered, never as wrongly covered.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "static/cfg.h"

namespace proxion::static_analysis {

/// Provenance of the value written into a storage range (core::ValueOrigin
/// is this type).
enum class WriteOrigin : std::uint8_t {
  kUnknown,
  kConstant,
  kCaller,    // derived from CALLER (msg.sender)
  kCalldata,  // derived from CALLDATALOAD
  kStorage,   // derived from another SLOAD
};

/// One typed view of a static slot: the byte range [offset, offset+width)
/// counted from the slot's least-significant end (Solidity packing).
struct LayoutMember {
  U256 slot{};
  std::uint8_t offset = 0;
  std::uint8_t width = 32;
  bool read = false;
  bool written = false;
  /// The range feeds a CALLER-equality comparison somewhere (the CRUSH
  /// "sensitive slot" notion).
  bool caller_compared = false;
  /// Some write to this range executes outside a caller-equality guard.
  bool unguarded_write = false;
  WriteOrigin write_origin = WriteOrigin::kUnknown;

  friend bool operator==(const LayoutMember&, const LayoutMember&) = default;
};

/// A keccak-derived slot family: every element of a mapping / dynamic array
/// rooted at `base_slot`. `depth` keccak applications; bit (level-1) of
/// `path` says whether that level hashed `key ++ slot` (mapping, bit set)
/// or `slot` alone (array, bit clear).
struct SlotFamily {
  U256 base_slot{};
  std::uint8_t depth = 1;
  std::uint8_t path = 0;
  AbstractValue::KeyOrigin key_origin = AbstractValue::KeyOrigin::kUnknown;
  /// Typed view of the element value (packed sub-word refinement applies to
  /// family elements exactly as to static slots).
  std::uint8_t value_offset = 0;
  std::uint8_t value_width = 32;
  bool read = false;
  bool written = false;
  bool caller_compared = false;
  bool unguarded_write = false;
  WriteOrigin write_origin = WriteOrigin::kUnknown;

  /// Family identity (what two contracts must share to collide).
  bool same_identity(const SlotFamily& o) const noexcept {
    return base_slot == o.base_slot && depth == o.depth && path == o.path;
  }

  friend bool operator==(const SlotFamily&, const SlotFamily&) = default;
};

/// Inferred storage layout of one contract. Pure function of the bytecode.
struct StorageLayout {
  std::vector<LayoutMember> members;  // sorted by (slot, offset, width)
  std::vector<SlotFamily> families;   // sorted by (base_slot, depth, path)
  /// Reachable SLOAD/SSTORE sites whose abstract slot resolved to neither a
  /// constant nor a slot family — each one is a claim the layout cannot
  /// make, so any nonzero count disables `reliable()`.
  std::uint32_t unresolved_accesses = 0;
  bool cfg_complete = false;

  /// The layout covers every storage access emulation can perform: only
  /// then may the cross-check oracle contradict an observed access.
  bool reliable() const noexcept {
    return cfg_complete && unresolved_accesses == 0;
  }

  /// Any member at this static slot (any byte range)?
  bool admits_slot(const U256& slot) const noexcept;
  /// Is every byte of [offset, offset+width) on `slot` covered by the union
  /// of member ranges recorded for it?
  bool covers_range(const U256& slot, std::uint8_t offset,
                    std::uint8_t width) const noexcept;
  /// The family with this identity, or nullptr.
  const SlotFamily* family(const U256& base_slot, std::uint8_t depth,
                           std::uint8_t path) const noexcept;

  /// Deterministic rendering for tests and debugging.
  std::string to_string() const;

  friend bool operator==(const StorageLayout&, const StorageLayout&) = default;
};

/// A slot family the scan discovered, interned so stack values and accesses
/// can reference it by index (same identity as SlotFamily).
struct ScannedFamily {
  U256 base{};
  std::uint8_t depth = 1;
  std::uint8_t path = 0;
  AbstractValue::KeyOrigin key = AbstractValue::KeyOrigin::kUnknown;
};

/// One typed SLOAD/SSTORE view the scan recorded, unaggregated. family_id < 0
/// means a static-slot access at `slot`; otherwise it indexes
/// StorageScan::families. A load read two ways yields two records.
struct ScannedAccess {
  int family_id = -1;
  U256 slot{};
  std::uint8_t offset = 0;
  std::uint8_t width = 32;
  bool is_write = false;
  /// The loaded value is compared against CALLER downstream.
  bool caller_compared = false;
  /// This write sits in a block entered only past a caller-equality guard.
  bool guarded = false;
  WriteOrigin origin = WriteOrigin::kUnknown;  // writes only
  std::uint32_t pc = 0;
};

struct StorageScan {
  std::vector<ScannedAccess> accesses;  // in scan order
  std::vector<ScannedFamily> families;
  /// SLOAD/SSTORE sites whose slot is a keccak value, resolved to a family
  /// or not.
  std::uint32_t hashed_accesses = 0;
};

/// The block-local scan, two passes over dis.blocks(): the first discovers
/// caller-guard jump targets, the second attributes them to writes. Pure;
/// touches no counter.
StorageScan scan_storage(const evm::Disassembly& dis);

/// Infers the layout from the disassembly and its recovered CFG. Bumps the
/// global obs counter `layout.inferred` once per (cold) invocation.
StorageLayout infer_layout(const evm::Disassembly& dis, const Cfg& cfg);

/// Convenience overload: recovers the CFG itself (recover_cfg is pure, so
/// this is equivalent to the two-argument form).
StorageLayout infer_layout(const evm::Disassembly& dis);

}  // namespace proxion::static_analysis
