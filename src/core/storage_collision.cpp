#include "core/storage_collision.h"

#include <algorithm>

#include "core/selector_extractor.h"
#include "evm/interpreter.h"

namespace proxion::core {

namespace {

/// Records SSTOREs against the proxy's storage context during an exploit
/// attempt, so we can tell whether the sensitive slot was written and with
/// what provenance.
class ExploitObserver final : public evm::TraceObserver {
 public:
  ExploitObserver(const Address& proxy, const U256& slot)
      : proxy_(proxy), slot_(slot) {}

  void on_sstore(int /*depth*/, const Address& storage_addr, const U256& slot,
                 const U256& value) override {
    if (storage_addr == proxy_ && slot == slot_) {
      wrote_ = true;
      last_value_ = value;
    }
  }

  bool wrote() const noexcept { return wrote_; }
  const U256& last_value() const noexcept { return last_value_; }

 private:
  Address proxy_;
  U256 slot_;
  bool wrote_ = false;
  U256 last_value_;
};

}  // namespace

std::vector<FamilyView> StorageCollisionDetector::declared_families(
    const sourcemeta::SourceRecord& record) {
  std::vector<FamilyView> out;
  for (const sourcemeta::VariableDecl& var : record.storage) {
    if (var.is_padding) continue;
    FamilyView view;
    view.base_slot = U256{var.slot};
    view.depth = 1;
    if (var.type.rfind("mapping", 0) == 0) {
      view.path = 1;  // level 1 hashed key ++ slot
    } else if (var.type.size() >= 2 &&
               var.type.compare(var.type.size() - 2, 2, "[]") == 0) {
      view.path = 0;  // dynamic array: level 1 hashed slot alone
    } else {
      continue;  // elementary variable, not a slot family
    }
    // Source records carry no element type for mappings/arrays, so the
    // declared view is the full word — matching what layout_storage() gives
    // the declaration itself.
    out.push_back(view);
  }
  return out;
}

std::vector<FamilyView> StorageCollisionDetector::inferred_families(
    const static_analysis::StorageLayout& layout) {
  std::vector<FamilyView> out;
  out.reserve(layout.families.size());
  for (const static_analysis::SlotFamily& f : layout.families) {
    FamilyView view;
    view.base_slot = f.base_slot;
    view.depth = f.depth;
    view.path = f.path;
    view.value_offset = f.value_offset;
    view.value_width = f.value_width;
    out.push_back(view);
  }
  return out;
}

void StorageCollisionDetector::compare_family_layouts(
    const Address& proxy_lookup, BytesView proxy_code,
    const Address& logic_lookup, BytesView logic_code,
    StorageCollisionResult& result) const {
  const sourcemeta::SourceRecord* proxy_src =
      sources_ != nullptr ? sources_->lookup(proxy_lookup) : nullptr;
  const sourcemeta::SourceRecord* logic_src =
      sources_ != nullptr ? sources_->lookup(logic_lookup) : nullptr;

  auto inferred = [](BytesView code) {
    return inferred_families(
        static_analysis::infer_layout(evm::Disassembly(code)));
  };

  // Source-attached mode needs declared layouts on *both* sides; anything
  // less and the pair is analyzed source-free from the bytecode alone.
  std::vector<FamilyView> proxy_views, logic_views;
  if (proxy_src != nullptr && logic_src != nullptr) {
    proxy_views = declared_families(*proxy_src);
    logic_views = declared_families(*logic_src);
  } else {
    result.family_source_free = true;
    proxy_views = inferred(proxy_code);
    logic_views = inferred(logic_code);
  }
  result.family_checked = true;

  // Same overlap-and-differ rule as the static-slot loop, applied to the
  // element value ranges of identity-matched families. One finding per
  // family identity (first conflicting view pair wins), mirroring the
  // per-slot "first conflict" convention above.
  for (const FamilyView& pv : proxy_views) {
    for (const FamilyView& lv : logic_views) {
      if (!pv.same_identity(lv)) continue;
      const bool overlap =
          pv.value_offset < lv.value_offset + lv.value_width &&
          lv.value_offset < pv.value_offset + pv.value_width;
      const bool differ = pv.value_offset != lv.value_offset ||
                          pv.value_width != lv.value_width;
      if (!overlap || !differ) continue;
      const bool seen = std::any_of(
          result.family_findings.begin(), result.family_findings.end(),
          [&](const FamilyCollisionFinding& f) {
            return f.base_slot == pv.base_slot && f.depth == pv.depth &&
                   f.path == pv.path;
          });
      if (seen) continue;
      FamilyCollisionFinding finding;
      finding.base_slot = pv.base_slot;
      finding.depth = pv.depth;
      finding.path = pv.path;
      finding.proxy_offset = pv.value_offset;
      finding.proxy_width = pv.value_width;
      finding.logic_offset = lv.value_offset;
      finding.logic_width = lv.value_width;
      result.family_findings.push_back(finding);
    }
  }
}

StorageCollisionResult StorageCollisionDetector::detect(
    const Address& proxy, BytesView proxy_code, const Address& logic,
    BytesView logic_code, const Address* proxy_source_lookup,
    const Address* logic_source_lookup) const {
  StorageCollisionResult result;
  result.proxy_profile = profile_storage(proxy_code);
  result.logic_profile = profile_storage(logic_code);

  // The probe list for exploit verification is also a pure function of the
  // logic blob; extract it once, on the first finding that needs it, and
  // share it across the rest.
  std::vector<std::uint32_t> probes;
  bool probes_ready = false;
  auto probe_selectors = [&]() -> const std::vector<std::uint32_t>& {
    if (!probes_ready) {
      probes = extract_selectors(logic_code);
      probes_ready = true;
    }
    return probes;
  };

  for (const U256& slot : result.proxy_profile.slots()) {
    const auto proxy_ranges = result.proxy_profile.ranges_of(slot);
    const auto logic_ranges = result.logic_profile.ranges_of(slot);
    if (proxy_ranges.empty() || logic_ranges.empty()) continue;  // not shared

    // Two typed views collide when their byte ranges overlap but are not
    // identical — Solidity packing makes disjoint ranges on one slot
    // perfectly compatible (e.g. an address at bytes 0-19 and a bool at
    // byte 20).
    std::optional<std::pair<std::pair<std::uint8_t, std::uint8_t>,
                            std::pair<std::uint8_t, std::uint8_t>>>
        conflict;
    for (const auto& pr : proxy_ranges) {
      for (const auto& lr : logic_ranges) {
        const bool overlap = pr.first < lr.first + lr.second &&
                             lr.first < pr.first + pr.second;
        if (overlap && pr != lr) {
          conflict = {pr, lr};
          break;
        }
      }
      if (conflict) break;
    }
    if (!conflict) continue;

    StorageCollisionFinding finding;
    finding.slot = slot;
    finding.proxy_offset = conflict->first.first;
    finding.proxy_width = conflict->first.second;
    finding.logic_offset = conflict->second.first;
    finding.logic_width = conflict->second.second;
    finding.sensitive = result.proxy_profile.is_sensitive(slot) ||
                        result.logic_profile.is_sensitive(slot);
    finding.exploitable =
        finding.sensitive && (result.logic_profile.has_unguarded_write(slot) ||
                              result.proxy_profile.has_unguarded_write(slot));

    if (finding.exploitable && config_.attempt_verification) {
      verify_exploit(proxy, proxy_code, logic, logic_code, probe_selectors(),
                     finding);
    }
    result.findings.push_back(finding);
  }

  if (config_.compare_families) {
    compare_family_layouts(
        proxy_source_lookup != nullptr ? *proxy_source_lookup : proxy,
        proxy_code,
        logic_source_lookup != nullptr ? *logic_source_lookup : logic,
        logic_code, result);
  }
  return result;
}

bool StorageCollisionDetector::verify_exploit(
    const Address& proxy, BytesView proxy_code, const Address& logic,
    BytesView logic_code, const std::vector<std::uint32_t>& logic_selectors,
    StorageCollisionFinding& finding) const {
  const Address attacker = Address::from_label("proxion.attacker");

  std::vector<std::uint32_t> probes = logic_selectors;
  if (probes.size() > config_.max_probe_functions) {
    probes.resize(config_.max_probe_functions);
  }

  // Two starting states: the live one, and one with the colliding slot
  // zeroed (concrete stand-in for CRUSH's symbolic path feasibility).
  for (const bool zero_slot : {false, true}) {
    for (const std::uint32_t selector : probes) {
      evm::OverlayHost overlay(state_);
      overlay.set_code(proxy, evm::Bytes(proxy_code.begin(), proxy_code.end()));
      overlay.set_code(logic, evm::Bytes(logic_code.begin(), logic_code.end()));
      if (zero_slot) overlay.set_storage(proxy, finding.slot, U256{});

      evm::Bytes calldata(4 + 32, 0);
      calldata[0] = static_cast<std::uint8_t>(selector >> 24);
      calldata[1] = static_cast<std::uint8_t>(selector >> 16);
      calldata[2] = static_cast<std::uint8_t>(selector >> 8);
      calldata[3] = static_cast<std::uint8_t>(selector);
      // Argument = the attacker's address, useful for setter-style writes.
      const auto arg = attacker.to_word().to_be_bytes();
      std::copy(arg.begin(), arg.end(), calldata.begin() + 4);

      ExploitObserver observer(proxy, finding.slot);
      evm::InterpreterConfig interp_config;
      interp_config.step_limit = 200'000;
      interp_config.max_call_depth = 64;  // bounded native recursion
      evm::Interpreter interp(overlay, interp_config);
      interp.set_observer(&observer);

      evm::CallParams params;
      params.code_address = proxy;
      params.storage_address = proxy;
      params.caller = attacker;
      params.origin = attacker;
      params.calldata = calldata;
      params.gas = config_.emulation_gas;

      const evm::ExecResult exec = interp.execute(params);
      if (!exec.success() || !observer.wrote()) continue;

      // The exploit counts if the attacker overwrote the sensitive slot
      // with data they control (their own address) or clobbered it with a
      // differently-typed value.
      const U256 written = observer.last_value();
      const bool attacker_controlled =
          (written & ((U256{1} << U256{160}) - U256{1})) ==
          attacker.to_word();
      const U256 before = zero_slot ? U256{}
                                    : state_.get_storage(proxy, finding.slot);
      if (attacker_controlled || written != before) {
        finding.verified = true;
        finding.exploit_selector = selector;

        // §2.3: re-run the exact transaction against the post-exploit
        // state. If the write fires again, the collision has defeated the
        // "only once" guard itself (the Audius failure mode).
        ExploitObserver replay_observer(proxy, finding.slot);
        evm::Interpreter replay(overlay, interp_config);
        replay.set_observer(&replay_observer);
        const evm::ExecResult second = replay.execute(params);
        finding.repeatable = second.success() && replay_observer.wrote();
        return true;
      }
    }
  }
  return false;
}

}  // namespace proxion::core
