#include "core/proxy_detector.h"

#include <algorithm>
#include <unordered_set>

#include "crypto/eth.h"
#include "obs/metrics.h"
#include "static/layout.h"

namespace proxion::core {

std::string_view to_string(ProxyVerdict v) noexcept {
  switch (v) {
    case ProxyVerdict::kNotProxy: return "not-proxy";
    case ProxyVerdict::kProxy: return "proxy";
    case ProxyVerdict::kEmulationError: return "emulation-error";
  }
  return "?";
}

std::string_view to_string(LogicSource s) noexcept {
  switch (s) {
    case LogicSource::kNone: return "none";
    case LogicSource::kHardcoded: return "hardcoded";
    case LogicSource::kStorageSlot: return "storage-slot";
    case LogicSource::kComputed: return "computed";
  }
  return "?";
}

std::string_view to_string(ProxyStandard s) noexcept {
  switch (s) {
    case ProxyStandard::kNotProxy: return "not-proxy";
    case ProxyStandard::kEip1167: return "EIP-1167";
    case ProxyStandard::kEip1822: return "EIP-1822";
    case ProxyStandard::kEip1967: return "EIP-1967";
    case ProxyStandard::kOther: return "other";
  }
  return "?";
}

std::string_view to_string(StaticTriage t) noexcept {
  switch (t) {
    case StaticTriage::kNotRun: return "not-run";
    case StaticTriage::kEmulated: return "emulated";
    case StaticTriage::kSkippedNoDelegatecall: return "skip-no-delegatecall";
    case StaticTriage::kSkippedDeadDelegatecall:
      return "skip-dead-delegatecall";
    case StaticTriage::kSkippedMinimalProxy: return "skip-minimal-proxy";
    case StaticTriage::kSkippedRunsToFuse: return "skip-runs-to-fuse";
  }
  return "?";
}

namespace {

/// Watches the emulated execution for (a) DELEGATECALLs issued by the tested
/// contract's own frame that forward the crafted call data, and (b) SLOADs
/// against the tested contract's storage, to later attribute the logic
/// address to the slot it was loaded from.
class ProxyProbeObserver final : public evm::TraceObserver {
 public:
  /// A keccak-derived slot-family identity reconstructed from the concrete
  /// hashes the probe computed (mirrors static_analysis::SlotFamily).
  struct ObservedFamily {
    U256 base;
    std::uint8_t depth = 1;
    std::uint8_t path = 0;
  };
  struct ObservedWrite {
    U256 slot;
    U256 old_value;
    U256 new_value;
  };

  /// `host` (may be null) is queried in on_sstore for the pre-write value,
  /// which the layout-width oracle needs to compute the changed byte range.
  ProxyProbeObserver(const Address& contract, const evm::Bytes& probe,
                     evm::Host* host = nullptr)
      : contract_(contract), probe_(probe), host_(host) {}

  void on_call(evm::CallKind kind, int /*depth*/, const Address& from,
               const Address& to, BytesView calldata) override {
    if (kind != evm::CallKind::kDelegateCall) return;
    if (!(from == contract_)) return;
    saw_delegatecall_ = true;
    const bool forwarded =
        calldata.size() == probe_.size() &&
        std::equal(calldata.begin(), calldata.end(), probe_.begin());
    if (forwarded && !forwarding_target_) {
      forwarding_target_ = to;
    }
  }

  void on_sload(int depth, const Address& storage_addr, const U256& slot,
                const U256& value) override {
    if (storage_addr == contract_) {
      sloads_.emplace_back(slot, value);
      // Layout oracle: only the contract's own frame (depth 0) executes the
      // contract's own code — delegatecalled logic runs against the same
      // storage but belongs to the *logic* contract's layout.
      if (depth == 0) probe_read_slots_.push_back(slot);
    }
  }

  void on_sstore(int depth, const Address& storage_addr, const U256& slot,
                 const U256& value) override {
    if (depth == 0 && storage_addr == contract_ && host_ != nullptr) {
      probe_writes_.push_back(
          {slot, host_->get_storage(storage_addr, slot), value});
    }
  }

  void on_keccak(int /*depth*/, BytesView input, const U256& hash) override {
    // Solidity's two slot-derivation shapes: 64 bytes = key ++ base_slot
    // (mapping element), 32 bytes = base_slot (dynamic-array data start).
    if (input.size() != 32 && input.size() != 64) return;
    const bool mapping = input.size() == 64;
    const U256 base_word =
        U256::from_be_slice(mapping ? input.subspan(32) : input);
    ObservedFamily fam{base_word, 1,
                      mapping ? std::uint8_t{1} : std::uint8_t{0}};
    for (const auto& [h, f] : keccak_families_) {
      // Nesting: the base word is itself a hash we computed earlier, so this
      // keccak extends that family by one level.
      if (h == base_word && f.depth < 8) {
        fam.base = f.base;
        fam.depth = static_cast<std::uint8_t>(f.depth + 1);
        fam.path = f.path;
        if (mapping) fam.path |= static_cast<std::uint8_t>(1u << f.depth);
        break;
      }
    }
    keccak_families_.emplace_back(hash, fam);
  }

  bool saw_delegatecall() const noexcept { return saw_delegatecall_; }
  const std::optional<Address>& forwarding_target() const noexcept {
    return forwarding_target_;
  }
  const std::vector<std::pair<U256, U256>>& sloads() const noexcept {
    return sloads_;
  }
  const std::vector<U256>& probe_read_slots() const noexcept {
    return probe_read_slots_;
  }
  const std::vector<ObservedWrite>& probe_writes() const noexcept {
    return probe_writes_;
  }
  const std::vector<std::pair<U256, ObservedFamily>>& keccak_families()
      const noexcept {
    return keccak_families_;
  }

 private:
  Address contract_;
  evm::Bytes probe_;
  evm::Host* host_;
  bool saw_delegatecall_ = false;
  std::optional<Address> forwarding_target_;
  std::vector<std::pair<U256, U256>> sloads_;
  std::vector<U256> probe_read_slots_;             // depth-0 reads
  std::vector<ObservedWrite> probe_writes_;        // depth-0 writes
  std::vector<std::pair<U256, ObservedFamily>> keccak_families_;
};

/// Do the 20 address bytes appear contiguously in the code?
bool address_in_code(const Address& a, BytesView code) {
  if (code.size() < 20) return false;
  return std::search(code.begin(), code.end(), a.bytes.begin(),
                     a.bytes.end()) != code.end();
}

const U256& eip1967_impl_slot() {
  static const U256 s = evm::to_u256(crypto::eip1967_implementation_slot());
  return s;
}
const U256& eip1967_beacon_slot() {
  static const U256 s = evm::to_u256(crypto::eip1967_beacon_slot());
  return s;
}
const U256& eip1822_slot() {
  static const U256 s = evm::to_u256(crypto::eip1822_proxiable_slot());
  return s;
}

ProxyStandard classify(const ProxyReport& r, BytesView code) {
  if (r.verdict != ProxyVerdict::kProxy) return ProxyStandard::kNotProxy;
  switch (r.logic_source) {
    case LogicSource::kHardcoded:
      // The minimal-proxy EIPs pin the logic address in the bytecode; the
      // paper additionally notes their runtime is under ~100 bytes (§4.3).
      return code.size() <= 100 ? ProxyStandard::kEip1167
                                : ProxyStandard::kOther;
    case LogicSource::kStorageSlot:
      if (r.logic_slot == eip1967_impl_slot() ||
          r.logic_slot == eip1967_beacon_slot()) {
        return ProxyStandard::kEip1967;
      }
      if (r.logic_slot == eip1822_slot()) return ProxyStandard::kEip1822;
      return ProxyStandard::kOther;
    default:
      return ProxyStandard::kOther;
  }
}

/// Largest family-element displacement the oracle will attribute to an
/// array index (`keccak(base) + i`): beyond this, an observed slot near a
/// computed hash is treated as outside the family.
constexpr std::uint64_t kMaxFamilyOffset = 1024;

/// The observed slot, if keccak-derived, resolved to a family the layout
/// knows. Returns nullptr when no recorded hash explains the slot.
const static_analysis::SlotFamily* admitted_family(
    const static_analysis::StorageLayout& layout, const U256& slot,
    const ProxyProbeObserver& obs) {
  for (const auto& [hash, fam] : obs.keccak_families()) {
    if (slot < hash) continue;
    const U256 diff = slot - hash;
    if (!diff.fits_u64() || diff.low64() > kMaxFamilyOffset) continue;
    if (const auto* f = layout.family(fam.base, fam.depth, fam.path)) {
      return f;
    }
  }
  return nullptr;
}

/// kMismatchLayout* bits: the probe's depth-0 storage accesses checked
/// against a *reliable* inferred layout (the caller guarantees reliability —
/// anything weaker makes no contradictable claim, PR-4 oracle posture).
std::uint8_t layout_vs_emulation_mismatch(
    const static_analysis::StorageLayout& layout,
    const ProxyProbeObserver& obs) {
  std::uint8_t bits = 0;
  for (const U256& slot : obs.probe_read_slots()) {
    if (!layout.admits_slot(slot) &&
        admitted_family(layout, slot, obs) == nullptr) {
      bits |= kMismatchLayoutSlot;
    }
  }
  for (const auto& w : obs.probe_writes()) {
    const bool is_member = layout.admits_slot(w.slot);
    const auto* fam =
        is_member ? nullptr : admitted_family(layout, w.slot, obs);
    if (!is_member && fam == nullptr) {
      bits |= kMismatchLayoutSlot;
      continue;
    }
    if (w.old_value == w.new_value) continue;  // no observable byte change
    // Changed byte range, as (offset from the LSB end, width) — the
    // core::StorageAccess convention the layout's ranges use.
    const auto ob = w.old_value.to_be_bytes();
    const auto nb = w.new_value.to_be_bytes();
    int first = -1, last = -1;
    for (int i = 0; i < 32; ++i) {
      if (ob[static_cast<std::size_t>(i)] != nb[static_cast<std::size_t>(i)]) {
        if (first < 0) first = i;
        last = i;
      }
    }
    const auto changed_offset = static_cast<std::uint8_t>(31 - last);
    const auto changed_width = static_cast<std::uint8_t>(last - first + 1);
    if (is_member) {
      // Enforce widths only when every inferred view of the slot is
      // sub-word: a full-word member admits any byte change by definition.
      bool any = false, all_subword = true;
      for (const auto& m : layout.members) {
        if (!(m.slot == w.slot)) continue;
        any = true;
        if (m.offset == 0 && m.width == 32) all_subword = false;
      }
      if (any && all_subword &&
          !layout.covers_range(w.slot, changed_offset, changed_width)) {
        bits |= kMismatchLayoutWidth;
      }
    } else if (fam != nullptr &&
               !(fam->value_offset == 0 && fam->value_width == 32)) {
      if (changed_offset < fam->value_offset ||
          changed_offset + changed_width >
              fam->value_offset + fam->value_width) {
        bits |= kMismatchLayoutWidth;
      }
    }
  }
  return bits;
}

}  // namespace

std::uint32_t ProxyDetector::craft_probe_selector(
    const Address& contract, const evm::Disassembly& dis) {
  const auto push4 = dis.push4_values();
  const std::unordered_set<std::uint32_t> avoid(push4.begin(), push4.end());

  // Deterministic starting point derived from the address, then linear
  // probing until we clear every candidate selector in the code.
  const crypto::Hash256 seed =
      crypto::keccak256("proxion.probe:" + contract.to_hex());
  std::uint32_t candidate = (std::uint32_t{seed[0]} << 24) |
                            (std::uint32_t{seed[1]} << 16) |
                            (std::uint32_t{seed[2]} << 8) |
                            std::uint32_t{seed[3]};
  while (avoid.contains(candidate)) ++candidate;
  return candidate;
}

ProxyReport ProxyDetector::analyze(const Address& contract) {
  return analyze_code(contract, state_.get_code(contract));
}

ProxyReport ProxyDetector::analyze_code(const Address& contract,
                                        BytesView code) {
  if (code.empty()) return ProxyReport{};
  const evm::Disassembly dis(code);
  return analyze_disassembled(contract, code, dis);
}

std::uint8_t ProxyDetector::static_vs_emulation_mismatch(
    const static_analysis::StaticReport& st, const ProxyReport& emulated,
    const ProxyDetectorConfig& config) {
  // One-sided oracle: only a *complete* CFG makes claims strong enough for
  // emulation to contradict. (The converse direction — statically reachable
  // but not executed by this probe — is expected: static reachability is
  // "for SOME input", the probe is one input.)
  if (!st.cfg.complete) return 0;
  std::uint8_t bits = 0;
  if (st.provably_no_delegatecall && emulated.delegatecall_executed) {
    bits |= kMismatchReachability;
  }
  // With no DELEGATECALL executed and no external call reachable, the probe
  // ran this blob's code alone, which the clean-termination proof bounds to
  // cfg.reachable_instructions steps and cfg.worst_case_gas gas. Inside the
  // budgets, a fuse or out-of-gas halt contradicts the proof.
  if (st.provably_clean_termination && !emulated.delegatecall_executed &&
      st.cfg.worst_case_gas < config.emulation_gas &&
      st.cfg.reachable_instructions < config.step_limit &&
      (emulated.halt == evm::HaltReason::kStepLimit ||
       emulated.halt == evm::HaltReason::kOutOfGas)) {
    bits |= kMismatchTermination;
  }
  if (emulated.is_proxy()) {
    const auto sites = st.reachable_sites();
    if (!sites.empty()) {
      using static_analysis::TargetClass;
      const bool all_storage =
          std::all_of(sites.begin(), sites.end(), [](const auto& s) {
            return s.target_class == TargetClass::kStorageSlot;
          });
      const bool all_hardcoded =
          std::all_of(sites.begin(), sites.end(), [](const auto& s) {
            return s.target_class == TargetClass::kHardcoded;
          });
      if (emulated.logic_source == LogicSource::kStorageSlot && all_storage &&
          std::none_of(sites.begin(), sites.end(), [&](const auto& s) {
            return s.slot == emulated.logic_slot;
          })) {
        bits |= kMismatchSlot;
      }
      if (all_hardcoded &&
          std::none_of(sites.begin(), sites.end(), [&](const auto& s) {
            return s.address == emulated.logic_address;
          })) {
        bits |= kMismatchTarget;
      }
    }
  }
  return bits;
}

ProxyReport ProxyDetector::analyze_disassembled(
    const Address& contract, BytesView code, const evm::Disassembly& dis) {
  ProxyReport report;

  // ---- Phase 1: opcode prefilter (§4.1) --------------------------------
  report.has_delegatecall_opcode = dis.contains(evm::Opcode::DELEGATECALL);
  if (!report.has_delegatecall_opcode) {
    if (config_.static_tier.enabled) {
      report.static_triage = StaticTriage::kSkippedNoDelegatecall;
    }
    return report;
  }

  // ---- Static triage tier (CFG recovery + provenance) -------------------
  std::optional<static_analysis::StaticReport> st;
  if (config_.static_tier.enabled) {
    st.emplace(static_analysis::analyze(dis));

    if (st->minimal_proxy_target.has_value()) {
      // Byte-exact EIP-1167 runtime: the fallback unconditionally forwards
      // the full calldata to the embedded address — equivalent to what the
      // probe emulation would witness, minus the emulation steps.
      report.static_triage = StaticTriage::kSkippedMinimalProxy;
      report.verdict = ProxyVerdict::kProxy;
      report.delegatecall_executed = true;
      report.calldata_forwarded = true;
      report.logic_address = *st->minimal_proxy_target;
      report.logic_source = LogicSource::kHardcoded;
      report.standard = classify(report, code);
      return report;
    }
    if (st->skip_dead(config_.emulation_gas, config_.step_limit)) {
      // No DELEGATECALL can execute on any input and the probe provably
      // halts cleanly within budget: emulation would report exactly the
      // default (kNotProxy, no delegatecall) — skip it.
      report.static_triage = StaticTriage::kSkippedDeadDelegatecall;
      return report;
    }
    report.static_triage =
        st->runs_to_fuse(config_.emulation_gas, config_.step_limit)
            ? StaticTriage::kSkippedRunsToFuse
            : StaticTriage::kEmulated;
  }

  // ---- Phase 2: emulation with crafted call data (§4.2) -----------------
  report.probe_selector = craft_probe_selector(contract, dis);
  evm::Bytes probe(4 + config_.probe_argument_bytes, 0);
  probe[0] = static_cast<std::uint8_t>(report.probe_selector >> 24);
  probe[1] = static_cast<std::uint8_t>(report.probe_selector >> 16);
  probe[2] = static_cast<std::uint8_t>(report.probe_selector >> 8);
  probe[3] = static_cast<std::uint8_t>(report.probe_selector);

  // Emulate against an overlay: probing must never mutate real state. The
  // probed code is installed at the contract's address so self-referential
  // opcodes (CODESIZE, EXTCODESIZE on self) behave.
  evm::OverlayHost overlay(state_);
  ProxyProbeObserver observer(contract, probe, &overlay);

  if (report.static_triage == StaticTriage::kSkippedRunsToFuse) {
    // Every path provably loops with no DELEGATECALL, no storage access and
    // gas to spare: the interpreter would halt on its fuse check
    // `++steps_ > step_limit`, at step step_limit + 1, with nothing for the
    // observer to see. Record that outcome without running it.
    report.halt = evm::HaltReason::kStepLimit;
    report.emulation_steps = config_.step_limit + 1;
  } else {
    overlay.set_code(contract, evm::Bytes(code.begin(), code.end()));
    evm::InterpreterConfig interp_config;
    interp_config.step_limit = config_.step_limit;
    interp_config.max_call_depth = config_.max_call_depth;
    evm::Interpreter interp(overlay, interp_config);
    interp.set_observer(&observer);

    evm::CallParams params;
    params.code_address = contract;
    params.storage_address = contract;
    params.caller = Address::from_label("proxion.prober");
    params.origin = params.caller;
    params.calldata = probe;
    params.gas = config_.emulation_gas;

    report.halt = interp.execute(params).halt;
    report.emulation_steps = interp.steps_executed();
  }
  report.delegatecall_executed = observer.saw_delegatecall();
  report.calldata_forwarded = observer.forwarding_target().has_value();

  if (report.calldata_forwarded) {
    report.verdict = ProxyVerdict::kProxy;
    report.logic_address = *observer.forwarding_target();

    // Attribute the logic address: storage slot beats hard-coded bytes when
    // both match (a slot-stored address may coincidentally appear in code).
    const U256 target_word = report.logic_address.to_word();
    for (const auto& [slot, value] : observer.sloads()) {
      if ((value & ((U256{1} << U256{160}) - U256{1})) == target_word) {
        report.logic_source = LogicSource::kStorageSlot;
        report.logic_slot = slot;
        break;
      }
    }
    if (report.logic_source == LogicSource::kNone) {
      report.logic_source = address_in_code(report.logic_address, code)
                                ? LogicSource::kHardcoded
                                : LogicSource::kComputed;
    }
  } else if (!evm::is_success(report.halt) &&
             report.halt != evm::HaltReason::kRevert) {
    // Emulation faulted (stack underflow, step limit, bad jump, ...) before
    // we could conclude anything — the paper's §6.2/§7.1 error bucket.
    report.verdict = ProxyVerdict::kEmulationError;
  } else {
    report.verdict = ProxyVerdict::kNotProxy;
  }

  report.standard = classify(report, code);

  if (st && config_.static_tier.cross_check) {
    report.static_mismatch =
        static_vs_emulation_mismatch(*st, report, config_);
  }

  // ---- Layout oracle (storage-layout inference cross-check) -------------
  if (st && config_.static_tier.infer_layout) {
    const static_analysis::StorageLayout layout =
        static_analysis::infer_layout(dis, st->cfg);
    report.layout_inferred = true;
    report.layout_reliable = layout.reliable();
    if (report.layout_reliable) {
      report.static_mismatch |= layout_vs_emulation_mismatch(layout, observer);
      obs::Registry& reg = obs::Registry::global();
      static obs::Counter& slot_mismatches = reg.counter("layout.mismatch.slot");
      static obs::Counter& width_mismatches =
          reg.counter("layout.mismatch.width");
      if ((report.static_mismatch & kMismatchLayoutSlot) != 0) {
        slot_mismatches.add(1);
      }
      if ((report.static_mismatch & kMismatchLayoutWidth) != 0) {
        width_mismatches.add(1);
      }
    }
  }
  return report;
}

}  // namespace proxion::core
