// Finding every logic contract ever associated with a proxy (§4.3,
// Algorithm 1): a binary-partition search over blockchain history that
// queries the archive node's getStorageAt only where the slot value changes,
// needing ~log2(blocks) * upgrades calls instead of one call per block.
// The search runs breadth-first and emits each depth's probe frontier as a
// single get_storage_at_many batch, so the archive decorator stack (retries,
// tracing) pays per frontier instead of per endpoint; the probe
// set and resulting LogicHistory are identical to the recursive formulation.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/archive_node.h"
#include "core/proxy_detector.h"
#include "evm/types.h"

namespace proxion::core {

struct LogicHistory {
  /// Every distinct logic address ever stored in the slot, in first-seen
  /// (block) order. Excludes the zero address (uninitialized slot).
  std::vector<Address> logic_addresses;
  /// Number of upgrade events (value transitions between distinct non-zero
  /// addresses) — Figure 6's metric.
  std::uint64_t upgrade_events = 0;
  /// getStorageAt calls this search consumed (§6.1 reports ~26 per proxy).
  std::uint64_t api_calls = 0;

  friend bool operator==(const LogicHistory&, const LogicHistory&) = default;
};

class LogicFinder {
 public:
  explicit LogicFinder(const chain::IArchiveNode& node) : node_(node) {}

  /// Runs Algorithm 1 for the proxy's logic slot between the genesis block
  /// and the latest block. For hard-coded (EIP-1167) proxies the history is
  /// the single embedded address, with zero API calls.
  LogicHistory find(const Address& proxy, const ProxyReport& report) const;

  /// The naive strawman: query every block in range. Used by the ablation
  /// bench to demonstrate Algorithm 1's savings.
  LogicHistory find_naive(const Address& proxy, const U256& slot) const;

 private:
  const chain::IArchiveNode& node_;
};

}  // namespace proxion::core
