// DELEGATECALL provenance over a recovered CFG (cfg.h): classifies each
// site's target operand (hardcoded PUSH20, storage-slot load with the
// concrete slot, calldata-derived, unknown), recognizes the exact EIP-1167
// minimal-proxy runtime, and derives the two proof facts the detector's
// triage tier consumes — "no DELEGATECALL is reachable" and "the probe
// provably terminates cleanly". Everything here is a pure function of the
// bytecode.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "static/cfg.h"

namespace proxion::static_analysis {

/// Provenance of a DELEGATECALL's target operand.
enum class TargetClass : std::uint8_t {
  kUnknown,      // not traceable (or the site was never abstractly executed)
  kHardcoded,    // constant — address embedded in the bytecode
  kStorageSlot,  // SLOAD from a concrete slot (possibly AND-masked to 160b)
  kCalldata,     // derived from calldata — the caller chooses the target
};

std::string_view to_string(TargetClass c) noexcept;

struct DelegatecallSite {
  std::uint32_t pc = 0;
  bool reachable = false;  // abstractly executed on some path from pc 0
  TargetClass target_class = TargetClass::kUnknown;
  U256 slot{};           // meaningful iff kStorageSlot
  evm::Address address;  // meaningful iff kHardcoded (low 160 bits of target)

  friend bool operator==(const DelegatecallSite&,
                         const DelegatecallSite&) = default;
};

/// Knobs the detector/pipeline expose for the triage tier.
struct StaticTierConfig {
  /// Run the static pass: dead-DELEGATECALL / minimal-proxy blobs skip
  /// phase-2 emulation, recovered slots seed the logic finder.
  bool enabled = false;
  /// After emulation, compare the static verdict against the emulated one
  /// and surface typed mismatch diagnostics (soundness oracle; the verdict
  /// itself always comes from emulation).
  bool cross_check = false;
  /// Infer a per-contract storage layout (layout.h) from the recovered CFG:
  /// static slots, keccak-derived mapping/array slot families, and packed
  /// sub-word members. Feeds the source-free storage-collision mode and the
  /// kMismatchLayout* cross-check bits.
  bool infer_layout = false;
};

struct StaticReport {
  Cfg cfg;
  /// One entry per DELEGATECALL instruction, sorted by pc.
  std::vector<DelegatecallSite> sites;

  bool has_delegatecall = false;  // any site at all (phase-1 equivalent)
  bool any_reachable_delegatecall = false;
  bool any_reachable_storage_access = false;  // a reachable SLOAD / SSTORE
  /// CFG complete and no DELEGATECALL abstractly executed on any path: the
  /// interpreter cannot execute one either (the abstract edges cover every
  /// concrete path while `cfg.complete`).
  bool provably_no_delegatecall = false;
  /// CFG complete, reachable subgraph acyclic, no reachable fault / unsafe
  /// terminator / external call, and all memory operands constant: a probe
  /// executes at most cfg.reachable_instructions steps and at most
  /// cfg.worst_case_gas gas before halting cleanly.
  bool provably_clean_termination = false;
  /// CFG complete, and no reachable path can leave the reachable blocks: no
  /// clean halt (STOP / RETURN / REVERT / running off the code end), no
  /// fault, no unsafe terminator, no external call, and all memory operands
  /// constant. A probe then executes instructions until a budget ends it.
  bool provably_no_exit = false;
  /// Set iff the code is byte-exactly the 45-byte EIP-1167 runtime; the
  /// detector fast-paths these without emulation.
  std::optional<evm::Address> minimal_proxy_target;

  /// True when the detector may skip phase-2 emulation entirely: no
  /// DELEGATECALL can execute AND the probe provably halts cleanly within
  /// the detector's gas and step budgets — the emulated report is forced to
  /// (kNotProxy, kStop/kReturn/kRevert) and carries no other signal.
  bool skip_dead(std::uint64_t emulation_gas,
                 std::uint64_t step_limit) const noexcept {
    return provably_no_delegatecall && provably_clean_termination &&
           cfg.worst_case_gas < emulation_gas &&
           cfg.reachable_instructions < step_limit;
  }

  /// Gas bound for a probe cut by the step fuse: the interpreter charges at
  /// most `step_limit` instructions, each at most the costliest reachable
  /// one, counted here as `step_limit + 1` of them, plus memory expansion.
  /// Saturates at UINT64_MAX.
  std::uint64_t fuse_gas_bound(std::uint64_t step_limit) const noexcept;

  /// True when the detector may skip phase-2 emulation because the probe
  /// provably executes until the step fuse and ends in no other way: no
  /// DELEGATECALL can execute, no path leaves the reachable blocks, and the
  /// fuse's gas bound stays below the gas budget, so the fuse — not the gas
  /// — ends the probe. The emulated report is forced to (kEmulationError,
  /// kStepLimit, `step_limit + 1` steps). No storage access is reachable
  /// either, so the probe has nothing for the detector's observer to see.
  bool runs_to_fuse(std::uint64_t emulation_gas,
                    std::uint64_t step_limit) const noexcept {
    return provably_no_delegatecall && provably_no_exit &&
           !any_reachable_storage_access &&
           fuse_gas_bound(step_limit) < emulation_gas;
  }

  /// Sites that were abstractly executed, in pc order.
  std::vector<DelegatecallSite> reachable_sites() const;
};

/// Full static pass: recover_cfg + site classification + EIP-1167 match.
/// Bumps the global obs counters static.cfg.blocks_recovered and
/// static.cfg.unresolved_jumps once per (cold) invocation.
StaticReport analyze(const evm::Disassembly& dis, const CfgOptions& options = {});

}  // namespace proxion::static_analysis
