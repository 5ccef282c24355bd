#include "core/diamond_probe.h"

#include <algorithm>
#include <unordered_set>

#include "evm/disassembler.h"
#include "evm/interpreter.h"

namespace proxion::core {

namespace {

/// Watches one selector probe for a forwarding DELEGATECALL, as the plain
/// detector does, and records the facet it targets.
class FacetObserver final : public evm::TraceObserver {
 public:
  FacetObserver(const Address& contract, const evm::Bytes& probe)
      : contract_(contract), probe_(probe) {}

  void on_call(evm::CallKind kind, int /*depth*/, const Address& from,
               const Address& to, evm::BytesView calldata) override {
    if (kind != evm::CallKind::kDelegateCall || !(from == contract_)) return;
    const bool forwarded =
        calldata.size() == probe_.size() &&
        std::equal(calldata.begin(), calldata.end(), probe_.begin());
    if (forwarded && !facet_) facet_ = to;
  }

  const std::optional<Address>& facet() const noexcept { return facet_; }

 private:
  Address contract_;
  evm::Bytes probe_;
  std::optional<Address> facet_;
};

}  // namespace

std::vector<std::uint32_t> DiamondProber::harvest_selectors(
    const Address& contract) const {
  std::vector<std::uint32_t> hints;
  std::unordered_set<std::uint32_t> seen;

  // (a) selectors from past transactions that reached the contract — the
  // CRUSH-style harvest the paper proposes in §8.2: external tx calldata
  // first, then internal call edges.
  for (const std::uint32_t s : chain_.external_selectors(contract)) {
    if (seen.insert(s).second) hints.push_back(s);
  }
  for (const chain::InternalTx& tx : chain_.internal_txs()) {
    if (tx.to == contract && seen.insert(tx.selector).second) {
      hints.push_back(tx.selector);
    }
  }

  // (b) PUSH4 candidates in the contract's own bytecode: registered facet
  // selectors often appear in the diamondCut bookkeeping code.
  const evm::Bytes code = chain_.get_code(contract);
  for (const std::uint32_t s : evm::Disassembly(code).push4_values()) {
    if (seen.insert(s).second) hints.push_back(s);
  }
  return hints;
}

DiamondReport DiamondProber::probe(const Address& contract,
                                   const ProxyReport& base) {
  DiamondReport report;
  // Only worth re-examining contracts that carry a DELEGATECALL but did not
  // forward the random probe.
  if (base.is_proxy() || !base.has_delegatecall_opcode) return report;

  std::vector<std::uint32_t> hints = harvest_selectors(contract);
  if (hints.size() > config_.max_probes) hints.resize(config_.max_probes);

  for (const std::uint32_t selector : hints) {
    evm::Bytes probe(36, 0);
    probe[0] = static_cast<std::uint8_t>(selector >> 24);
    probe[1] = static_cast<std::uint8_t>(selector >> 16);
    probe[2] = static_cast<std::uint8_t>(selector >> 8);
    probe[3] = static_cast<std::uint8_t>(selector);

    evm::OverlayHost overlay(chain_);
    FacetObserver observer(contract, probe);
    evm::InterpreterConfig interp_config;
    interp_config.step_limit = config_.step_limit;
    interp_config.max_call_depth = 64;  // bounded native recursion
    evm::Interpreter interp(overlay, interp_config);
    interp.set_observer(&observer);

    evm::CallParams params;
    params.code_address = contract;
    params.storage_address = contract;
    params.caller = Address::from_label("proxion.diamond.prober");
    params.origin = params.caller;
    params.calldata = probe;
    params.gas = config_.emulation_gas;
    interp.execute(params);

    if (observer.facet()) {
      report.routed_selectors.push_back(selector);
      if (std::find(report.facets.begin(), report.facets.end(),
                    *observer.facet()) == report.facets.end()) {
        report.facets.push_back(*observer.facet());
      }
    }
  }

  // Selector-conditional delegation is the diamond signature: the random
  // probe failed but at least one registered selector forwards.
  report.is_diamond = !report.routed_selectors.empty();
  return report;
}

}  // namespace proxion::core
