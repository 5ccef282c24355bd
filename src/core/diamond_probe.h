// §8.2 (future work, implemented here): detecting EIP-2535 diamond proxies.
// A diamond's fallback only delegates selectors registered in its facet
// mapping, so Proxion's random probe bounces off (§8.1). The paper's
// proposed fix is to harvest selectors that were *actually sent* to the
// contract from past transactions (as CRUSH does) and probe with those; we
// additionally probe with selectors found in the diamond's own bytecode and
// with the facets registered under the standard diamond storage slot.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/blockchain.h"
#include "core/proxy_detector.h"

namespace proxion::core {

struct DiamondProbeConfig {
  /// Upper bound on selectors probed per contract.
  std::size_t max_probes = 64;
  std::uint64_t emulation_gas = 5'000'000;
  std::uint64_t step_limit = 200'000;
};

struct DiamondReport {
  bool is_diamond = false;
  /// Selectors whose probe triggered a forwarding DELEGATECALL.
  std::vector<std::uint32_t> routed_selectors;
  /// Facet addresses observed as DELEGATECALL targets.
  std::vector<Address> facets;

  friend bool operator==(const DiamondReport&, const DiamondReport&) = default;
};

class DiamondProber {
 public:
  explicit DiamondProber(chain::Blockchain& chain,
                         DiamondProbeConfig config = {})
      : chain_(chain), config_(config) {}

  /// Re-examines a contract that the plain detector called "not a proxy"
  /// despite a DELEGATECALL opcode: probes with selector hints harvested
  /// from (a) past transactions targeting the contract and (b) PUSH4
  /// candidates in its bytecode. Returns a diamond verdict plus the facets.
  DiamondReport probe(const Address& contract, const ProxyReport& base);

  /// The selector hints that would be used (exposed for tests/benches).
  std::vector<std::uint32_t> harvest_selectors(const Address& contract) const;

 private:
  chain::Blockchain& chain_;
  DiamondProbeConfig config_;
};

}  // namespace proxion::core
