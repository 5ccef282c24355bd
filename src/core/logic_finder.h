// Finding every logic contract ever associated with a proxy (§4.3,
// Algorithm 1): a binary-partition search over blockchain history that
// queries the archive node's getStorageAt only where the slot value changes,
// needing ~log2(blocks) * upgrades calls instead of one call per block.
// The search runs breadth-first and in lockstep over every target of one
// call: each depth's probe frontier, across all the targets, is a single
// get_storage_at_many batch, so a run pays one archive round trip per depth
// instead of one per proxy per depth. Targets never share a probe, only a
// round trip: each target's probe set, api_calls and LogicHistory are those
// of the recursive formulation run for it alone.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
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

/// One proxy to search: its address and its detector verdict (borrowed for
/// the duration of the call).
struct LogicTarget {
  Address proxy;
  const ProxyReport* report = nullptr;
};

/// A target's outcome: its history, or the archive error that ended its
/// search (the history is then empty).
struct LogicSearch {
  LogicHistory history;
  std::optional<chain::RpcError> error;
};

class LogicFinder {
 public:
  explicit LogicFinder(const chain::IArchiveNode& node) : node_(node) {}

  /// Runs Algorithm 1 for every target's logic slot between the genesis
  /// block and the latest block (read once, so every target searches up to
  /// the same head); results[i] answers targets[i]. For hard-coded
  /// (EIP-1167) proxies the history is the single embedded address, with
  /// zero API calls; non-proxies get an empty history.
  ///
  /// Each target is its own failure domain. When a batch spanning several
  /// targets gives up with an RpcError, that depth is asked again one target
  /// at a time and the search continues that way; a failing single-target
  /// batch ends only that target's search. No height already answered is
  /// asked again.
  std::vector<LogicSearch> find(std::span<const LogicTarget> targets) const;

  /// The single-proxy search; throws the target's RpcError.
  LogicHistory find(const Address& proxy, const ProxyReport& report) const;

  /// The naive strawman: query every block in range. Used by the ablation
  /// bench to demonstrate Algorithm 1's savings.
  LogicHistory find_naive(const Address& proxy, const U256& slot) const;

 private:
  const chain::IArchiveNode& node_;
};

}  // namespace proxion::core
