// Proxy detection exactly as the paper describes (§4.1–§4.2):
//
//   Phase 1 — disassemble; no DELEGATECALL opcode anywhere => not a proxy.
//   Phase 2 — emulate the contract in an EVM with *crafted call data*: a
//   4-byte selector chosen to miss every candidate selector in the bytecode
//   (every PUSH4 payload is avoided), so execution must land in the fallback
//   function. The contract is a proxy iff a DELEGATECALL issued from the
//   contract's own frame forwards that call data verbatim to another
//   contract. This needs neither source code nor transaction history.
//
// The detector also recovers where the logic address lives (hard-coded bytes
// vs a storage slot, and which slot), which both classifies the proxy
// standard (Table 4) and seeds the logic-finder's archive-node search (§4.3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "evm/disassembler.h"
#include "evm/host.h"
#include "evm/interpreter.h"
#include "evm/types.h"
#include "static/provenance.h"

namespace proxion::core {

using evm::Address;
using evm::Bytes;
using evm::BytesView;
using evm::U256;

enum class ProxyVerdict : std::uint8_t {
  kNotProxy,
  kProxy,
  kEmulationError,  // emulation faulted before a verdict could be reached
};

enum class LogicSource : std::uint8_t {
  kNone,
  kHardcoded,    // address embedded in the bytecode (EIP-1167 / clones)
  kStorageSlot,  // address read from a storage slot during the fallback
  kComputed,     // observed target not traceable to code bytes or a slot
};

/// Proxy standard taxonomy of Table 4.
enum class ProxyStandard : std::uint8_t {
  kNotProxy,
  kEip1167,   // minimal proxy, hard-coded logic address
  kEip1822,   // UUPS: keccak256("PROXIABLE") slot
  kEip1967,   // keccak256("eip1967.proxy.implementation") - 1 slot
  kOther,     // storage-based but non-standard slot (incl. slot 0)
};

/// How the static triage tier routed this contract (kNotRun when the tier
/// is disabled). Skips never change verdicts: they fire only when the static
/// pass *proved* what emulation would conclude (see DESIGN.md).
enum class StaticTriage : std::uint8_t {
  kNotRun,
  kEmulated,                  // static pass ran, emulation still required
  kSkippedNoDelegatecall,     // phase-1 absence, recorded by the tier
  kSkippedDeadDelegatecall,   // every DELEGATECALL provably unreachable
  kSkippedMinimalProxy,       // byte-exact EIP-1167 runtime
};

std::string_view to_string(ProxyVerdict v) noexcept;
std::string_view to_string(LogicSource s) noexcept;
std::string_view to_string(ProxyStandard s) noexcept;
std::string_view to_string(StaticTriage t) noexcept;

// static_mismatch bits: typed disagreement between the static pass and the
// emulated verdict (only ever set when the recovered CFG was complete — an
// incomplete CFG makes no claim emulation could contradict).
inline constexpr std::uint8_t kMismatchReachability = 1u << 0;
inline constexpr std::uint8_t kMismatchSlot = 1u << 1;
inline constexpr std::uint8_t kMismatchTarget = 1u << 2;
// Layout-oracle bits (only ever set when the inferred StorageLayout was
// `reliable()` — an unreliable layout makes no claim emulation could
// contradict): the probe touched a slot outside every inferred member and
// slot family, or a write changed bytes outside the inferred sub-word ranges.
inline constexpr std::uint8_t kMismatchLayoutSlot = 1u << 3;
inline constexpr std::uint8_t kMismatchLayoutWidth = 1u << 4;

struct ProxyReport {
  ProxyVerdict verdict = ProxyVerdict::kNotProxy;
  bool has_delegatecall_opcode = false;  // phase-1 outcome
  bool delegatecall_executed = false;    // a DELEGATECALL ran during emulation
  bool calldata_forwarded = false;       // ... and forwarded our crafted data
  evm::HaltReason halt = evm::HaltReason::kStop;

  Address logic_address;   // target observed at the DELEGATECALL
  LogicSource logic_source = LogicSource::kNone;
  U256 logic_slot;         // meaningful iff logic_source == kStorageSlot
  ProxyStandard standard = ProxyStandard::kNotProxy;

  /// Static-tier routing + cross-check outcome for this contract.
  StaticTriage static_triage = StaticTriage::kNotRun;
  std::uint8_t static_mismatch = 0;  // kMismatch* bits
  /// Layout inference (static_tier.infer_layout) ran for this contract...
  bool layout_inferred = false;
  /// ...and produced a reliable() layout, so the kMismatchLayout* oracle was
  /// armed against the probe's observed storage accesses.
  bool layout_reliable = false;

  std::uint32_t probe_selector = 0;  // the crafted selector used
  /// Interpreter steps the phase-2 probe emulation consumed (0 when the
  /// phase-1 prefilter skipped emulation). Deterministic per (address,
  /// code), so cached verdicts replay the same number — it feeds the
  /// pipeline's emulation-cost histogram.
  std::uint64_t emulation_steps = 0;

  bool is_proxy() const noexcept { return verdict == ProxyVerdict::kProxy; }

  friend bool operator==(const ProxyReport&, const ProxyReport&) = default;
};

struct ProxyDetectorConfig {
  std::uint64_t emulation_gas = 5'000'000;
  std::uint64_t step_limit = 200'000;
  /// Call-depth bound for detection emulation, far below the EVM's 1024:
  /// real proxies delegate a handful of frames deep, and the interpreter
  /// recurses natively per frame — adversarial self-recursing bytecode must
  /// exhaust its *step* budget in bounded process stack, not overflow it.
  int max_call_depth = 64;
  /// Calldata appended after the probe selector (function "arguments").
  std::size_t probe_argument_bytes = 32;
  /// Static triage tier (CFG recovery + DELEGATECALL provenance). Disabled
  /// by default for standalone detector use; the pipeline turns it on.
  static_analysis::StaticTierConfig static_tier;
};

class ProxyDetector {
 public:
  /// The third parameter only keeps callers that still pass `nullptr` there
  /// compiling; it carries nothing.
  explicit ProxyDetector(evm::Host& state, ProxyDetectorConfig config = {},
                         std::nullptr_t = nullptr)
      : state_(state), config_(config) {}

  /// Analyzes the contract deployed at `contract` (code read via the host).
  ProxyReport analyze(const Address& contract);

  /// Analyzes explicit bytecode as if deployed at `contract` (used when
  /// sweeping code blobs deduplicated by hash).
  ProxyReport analyze_code(const Address& contract, BytesView code);

  /// The crafted probe selector for a given code blob: deterministic, and
  /// guaranteed to differ from every 4-byte immediate following a PUSH4
  /// (§4.2's "random signature different from all existing functions").
  static std::uint32_t craft_probe_selector(const Address& contract,
                                            const evm::Disassembly& dis);

  /// Typed disagreement between a (complete) static report and an emulated
  /// proxy report; 0 when the static pass made no contradicted claim.
  /// Exposed for the cross-check tests.
  static std::uint8_t static_vs_emulation_mismatch(
      const static_analysis::StaticReport& st, const ProxyReport& emulated);

 private:
  ProxyReport analyze_disassembled(const Address& contract, BytesView code,
                                   const evm::Disassembly& dis);

  evm::Host& state_;
  ProxyDetectorConfig config_;
};

}  // namespace proxion::core
