// CFG recovery over the linear-sweep disassembly by abstract interpretation
// of the EVM operand stack (the EtherSolve-style "symbolic stack" approach):
// a constant-propagating stack machine walks every block reachable from pc 0,
// resolving PUSH/DUP/SWAP-fed JUMP/JUMPI targets into concrete edges,
// marking jumps whose target stays abstract as unresolved, and recording the
// dataflow facts the provenance pass (provenance.h) and the detector's
// dead-DELEGATECALL skip proof need.
//
// Soundness posture: the recovered edge set over-approximates the edges the
// interpreter can take *only while `complete` is true* — an unresolved jump,
// an entry-depth conflict, or an exhausted step budget each clear it, and
// every downstream consumer treats an incomplete CFG as "defer to
// emulation". Constant propagation mirrors src/evm/interpreter.cpp operand
// order and truncated-PUSH zero-padding exactly; the agreement is tested
// against the interpreter's actually-taken jumps over the full archetype
// corpus.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "evm/disassembler.h"
#include "evm/types.h"

namespace proxion::static_analysis {

using evm::U256;

/// One lattice value of the abstract operand stack.
///   kConst    — the word is this exact constant on every path seen so far.
///   kStorage  — the word was SLOADed from the (constant) slot in `payload`,
///               possibly narrowed by an AND mask — the shape every
///               slot-proxy fallback uses for its logic address.
///   kCalldata — derived from CALLDATALOAD / CALLDATASIZE (caller-chosen).
///   kHashed   — a keccak-derived storage slot: `payload` is the root base
///               slot, `hash_depth`/`hash_path` encode the nesting shape
///               (Solidity mapping elements hash `key ++ base` over 0x40
///               bytes; dynamic-array data hashes `base` over 0x20 bytes),
///               and `addend` is a constant offset added past the hash.
///   kUnknown  — anything else (top of the lattice).
struct AbstractValue {
  enum class Kind : std::uint8_t {
    kUnknown, kConst, kStorage, kCalldata, kHashed
  };

  /// Provenance of the key/index that selected a kHashed slot family
  /// element — calldata keys mean the reachable element is caller-chosen.
  enum class KeyOrigin : std::uint8_t { kUnknown, kConst, kCalldata };

  Kind kind = Kind::kUnknown;
  U256 payload{};  // kConst: the value; kStorage/kHashed: the (base) slot
  // ---- kHashed only; zero-valued for every other kind --------------------
  U256 addend{};               // constant offset past the hash (array index)
  std::uint8_t hash_depth = 0; // keccak applications (1 = single level)
  std::uint8_t hash_path = 0;  // bit (level-1): 1 = mapping, 0 = array
  KeyOrigin key_origin = KeyOrigin::kUnknown;

  static AbstractValue constant(const U256& v) {
    return {Kind::kConst, v};
  }
  static AbstractValue storage(const U256& slot) {
    return {Kind::kStorage, slot};
  }
  static AbstractValue calldata() { return {Kind::kCalldata, U256{}}; }
  static AbstractValue unknown() { return {Kind::kUnknown, U256{}}; }
  static AbstractValue hashed(const U256& base, std::uint8_t depth,
                              std::uint8_t path, KeyOrigin key) {
    AbstractValue v;
    v.kind = Kind::kHashed;
    v.payload = base;
    v.hash_depth = depth;
    v.hash_path = path;
    v.key_origin = key;
    return v;
  }

  bool is_const() const noexcept { return kind == Kind::kConst; }
  bool is_storage() const noexcept { return kind == Kind::kStorage; }
  bool is_calldata() const noexcept { return kind == Kind::kCalldata; }
  bool is_hashed() const noexcept { return kind == Kind::kHashed; }

  /// Same symbolic slot family: identical root slot and nesting shape
  /// (addend and key provenance may differ between elements).
  bool same_family(const AbstractValue& o) const noexcept {
    return is_hashed() && o.is_hashed() && payload == o.payload &&
           hash_depth == o.hash_depth && hash_path == o.hash_path;
  }

  friend bool operator==(const AbstractValue&,
                         const AbstractValue&) = default;
};

/// Lattice join: equal values stay, everything else degrades (calldata taint
/// survives a join with calldata; any other mix is kUnknown).
AbstractValue join(const AbstractValue& a, const AbstractValue& b) noexcept;

/// Per-block recovery result, parallel to Disassembly::blocks().
struct CfgBlock {
  std::uint32_t start_pc = 0;
  std::uint32_t first_instruction = 0;
  std::uint32_t instruction_count = 0;
  /// Abstractly executed from pc 0 along resolved edges.
  bool reachable = false;
  /// Some path through this block can fault (stack underflow/overflow,
  /// constant jump to a non-JUMPDEST, INVALID/undefined byte, non-constant
  /// RETURNDATACOPY) — the emulation verdict on that path would be
  /// kEmulationError territory, so the dead-skip proof refuses the blob.
  bool may_fault = false;
  /// Entry states were merged past the per-block cap; constants may have
  /// been lost (but depths stayed exact unless `Cfg::depth_conflict`).
  bool widened = false;
  /// Ends in a JUMP/JUMPI whose target operand stayed abstract.
  bool unresolved_jump = false;
  /// Successor block indices (resolved jump targets + fall-throughs),
  /// sorted and deduplicated — deterministic across runs and thread counts.
  std::vector<std::uint32_t> successors;
};

/// Every DELEGATECALL instruction in the code with the abstract value of its
/// target operand (second from the top of the stack), joined across all
/// abstract paths that executed it. Unexecuted sites keep kUnknown targets.
struct DelegatecallFact {
  std::uint32_t pc = 0;
  bool reachable = false;  // abstractly executed at least once
  AbstractValue target;

  friend bool operator==(const DelegatecallFact&,
                         const DelegatecallFact&) = default;
};

/// Every SLOAD/SSTORE instruction with the joined abstract value of its slot
/// operand (and, for writes, its value operand) across all abstract paths
/// that executed it. Unexecuted sites keep kUnknown/dead entries. Consumed
/// by the layout-inference pass (layout.h).
struct StorageFact {
  std::uint32_t pc = 0;
  bool is_write = false;
  bool reachable = false;  // abstractly executed at least once
  AbstractValue slot;
  AbstractValue value;  // writes only; kUnknown for reads

  friend bool operator==(const StorageFact&, const StorageFact&) = default;
};

struct CfgOptions {
  /// Distinct abstract entry states tracked per block before widening.
  std::uint32_t max_entry_states_per_block = 8;
  /// Abstract instruction budget; 0 = auto (64x the instruction count,
  /// min 4096). Exhaustion marks the CFG incomplete, never wrong.
  std::uint64_t abstract_step_budget = 0;
};

struct Cfg {
  std::vector<CfgBlock> blocks;  // parallel to Disassembly::blocks()
  std::vector<std::uint32_t> unresolved_jump_pcs;  // sorted
  std::vector<DelegatecallFact> delegatecalls;     // sorted by pc
  std::vector<StorageFact> storage_facts;          // sorted by pc

  /// The recovered edges provably cover every edge emulation can take from
  /// pc 0 (no unresolved reachable jump, no depth conflict, budget intact).
  bool complete = false;
  /// A cycle among reachable blocks (conservatively true when !complete).
  bool has_reachable_cycle = false;
  bool budget_exhausted = false;
  /// Two paths reached a block with different stack depths and the entry
  /// cap forced a merge; depth-exact fault tracking is lost.
  bool depth_conflict = false;

  // ---- facts for the dead-skip proof (trustworthy iff `complete`) --------
  /// CALL/CALLCODE/STATICCALL/CREATE/CREATE2 in a reachable block — the
  /// probe could enter foreign code, so no static termination bound holds.
  bool external_call_reachable = false;
  /// Reachable INVALID / undefined byte / SELFDESTRUCT (halts the probe in
  /// a way the clean-termination proof refuses to reason about).
  bool unsafe_terminator_reachable = false;
  /// Reachable STOP / RETURN / REVERT, or a reachable path that runs off
  /// the end of the code (the implicit STOP). False together with the other
  /// halt facts means no reachable path ever leaves the reachable blocks.
  bool clean_halt_reachable = false;
  /// Every reachable memory-touching operand was a constant (size-zero ops
  /// excepted) — required for the static gas bound below.
  bool memory_bounded = true;
  std::uint64_t max_memory_end = 0;  // bytes, when memory_bounded
  /// Static worst-case gas for one probe: per-opcode base costs plus cold
  /// EIP-2929 surcharges over every reachable instruction, plus quadratic
  /// expansion to max_memory_end — mirrors the interpreter's fuel model.
  std::uint64_t worst_case_gas = 0;
  /// The costliest reachable instruction: base gas plus its cold EIP-2929
  /// surcharge. Bounds the gas of any number of steps, loops included.
  std::uint64_t max_instruction_gas = 0;
  /// Quadratic expansion gas to max_memory_end (part of worst_case_gas).
  std::uint64_t memory_gas = 0;
  /// Upper bound on interpreter steps when the reachable subgraph is
  /// acyclic: each reachable instruction executes at most once.
  std::uint64_t reachable_instructions = 0;

  std::uint64_t abstract_steps = 0;  // work the analysis itself spent

  std::uint32_t reachable_block_count() const noexcept;
  std::uint32_t unresolved_jump_count() const noexcept {
    return static_cast<std::uint32_t>(unresolved_jump_pcs.size());
  }

  /// Index of the block whose pc range contains `pc` (blocks partition the
  /// code), or nullopt when there are no blocks / pc is past the end.
  std::optional<std::uint32_t> block_containing(std::uint32_t pc) const;

  /// True iff the recovered CFG has the edge `from` -> `to` (block indices).
  bool has_edge(std::uint32_t from, std::uint32_t to) const;

  /// Deterministic one-block-per-line rendering (tests compare these to
  /// assert block ordering and edge determinism).
  std::string to_string() const;
};

/// Recovers the CFG of `dis` from pc 0. Pure function of the bytecode.
Cfg recover_cfg(const evm::Disassembly& dis, const CfgOptions& options = {});

}  // namespace proxion::static_analysis
