// The archive-node facade Proxion queries: eth_getStorageAt at arbitrary
// heights plus code retrieval, with an API-call counter so the efficiency
// claim of Algorithm 1 (≈26 getStorageAt calls per proxy instead of one per
// block) is directly measurable.
//
// `IArchiveNode` is the seam the sweep pipeline talks through. The
// in-process `ArchiveNode` is one implementation; decorators stack on top of
// any other: `FaultInjectingArchiveNode` (chain/fault_injection.h) models a
// real node's failure modes, `ResilientArchiveNode` (chain/resilient_node.h)
// adds retries and a circuit breaker. Backend failures surface as the typed
// `RpcError`, never as silently-wrong data.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "chain/blockchain.h"
#include "obs/metrics.h"

namespace proxion::chain {

/// Failure taxonomy of an archive-node RPC, mirroring what a JSON-RPC client
/// actually sees against a loaded node.
enum class RpcErrorKind : std::uint8_t {
  kTransient,    // connection reset / 5xx; a fresh attempt may succeed
  kTimeout,      // deadline expired before a response arrived
  kRateLimited,  // 429 burst; succeeds again after backing off
  kStaleRead,    // node not yet synced to the requested height
  kCircuitOpen,  // local breaker fast-fail; the backend was never asked
  kExhausted,    // retry budget spent without a success; terminal
};

std::string_view to_string(RpcErrorKind kind) noexcept;

class RpcError : public std::runtime_error {
 public:
  RpcError(RpcErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  RpcErrorKind kind() const noexcept { return kind_; }
  /// Could another attempt succeed? Everything except the two terminal
  /// local verdicts (kExhausted, kCircuitOpen) is worth retrying.
  bool retriable() const noexcept {
    return kind_ != RpcErrorKind::kExhausted &&
           kind_ != RpcErrorKind::kCircuitOpen;
  }

 private:
  RpcErrorKind kind_;
};

/// One eth_getStorageAt probe, for the batched read path.
struct StorageQuery {
  Address account;
  U256 slot;
  std::uint64_t block = 0;
};

/// Abstract archive-node endpoint. Query methods may throw RpcError; the
/// counters are forwarded through decorators so callers always observe the
/// innermost facade's totals.
class IArchiveNode {
 public:
  virtual ~IArchiveNode() = default;

  /// eth_getStorageAt(account, slot, block).
  virtual U256 get_storage_at(const Address& account, const U256& slot,
                              std::uint64_t block) const = 0;

  /// Batched eth_getStorageAt: results[i] answers queries[i]. The default
  /// implementation loops the scalar call; decorators override it to apply
  /// their policy to the whole batch (one retry ladder, one trace span)
  /// instead of per element. On throw, no partial results
  /// are returned — callers retry or fail the whole batch.
  virtual std::vector<U256> get_storage_at_many(
      std::span<const StorageQuery> queries) const {
    std::vector<U256> out;
    out.reserve(queries.size());
    for (const StorageQuery& q : queries) {
      out.push_back(get_storage_at(q.account, q.slot, q.block));
    }
    return out;
  }

  /// eth_getCode at the latest block.
  virtual Bytes get_code(const Address& account) const = 0;
  virtual std::uint64_t latest_block() const = 0;

  virtual std::uint64_t get_storage_at_calls() const = 0;
  virtual std::uint64_t get_code_calls() const = 0;
  virtual void reset_counters() const = 0;
};

namespace detail {
/// Process-wide RPC totals in the metrics registry, aggregated across every
/// ArchiveNode instance. Cached references so the hot path skips the
/// registry's name lookup.
inline obs::Counter& global_storage_calls() {
  static obs::Counter& c =
      obs::Registry::global().counter("chain.archive.get_storage_at_calls");
  return c;
}
inline obs::Counter& global_code_calls() {
  static obs::Counter& c =
      obs::Registry::global().counter("chain.archive.get_code_calls");
  return c;
}
}  // namespace detail

/// The in-process implementation over the simulated chain. Never fails.
class ArchiveNode final : public IArchiveNode {
 public:
  explicit ArchiveNode(const Blockchain& chain) : chain_(chain) {}

  /// eth_getStorageAt(account, slot, block). Counted.
  U256 get_storage_at(const Address& account, const U256& slot,
                      std::uint64_t block) const override {
    get_storage_at_calls_.add(1);
    detail::global_storage_calls().add(1);
    return chain_.storage_at(account, slot, block);
  }

  /// Batched eth_getStorageAt: one counter add for the whole batch, then the
  /// in-process chain answers each query (still one storage lookup per query
  /// — a real JSON-RPC backend would answer these in a single round trip).
  std::vector<U256> get_storage_at_many(
      std::span<const StorageQuery> queries) const override {
    get_storage_at_calls_.add(queries.size());
    detail::global_storage_calls().add(queries.size());
    std::vector<U256> out;
    out.reserve(queries.size());
    for (const StorageQuery& q : queries) {
      out.push_back(chain_.storage_at(q.account, q.slot, q.block));
    }
    return out;
  }

  /// eth_getCode at the latest block. Counted.
  Bytes get_code(const Address& account) const override {
    get_code_calls_.add(1);
    detail::global_code_calls().add(1);
    return chain_.code_at(account);
  }

  std::uint64_t latest_block() const override { return chain_.height(); }

  // Counter-snapshot semantics: the counters are monotonic relaxed
  // (obs::Counter shards) incremented from every pipeline worker. A getter
  // returns a point-in-time snapshot of that one counter; reading both
  // getters is NOT an atomic pair (a call landing between the two loads
  // appears in one but not the other). That is fine for their only use —
  // end-of-phase accounting after the workers quiesced — and relaxed
  // ordering keeps the hot path to a plain atomic increment. The per-node
  // counts also feed the process-wide `chain.archive.*` registry totals
  // (which reset_counters leaves alone: registry totals are monotonic).
  std::uint64_t get_storage_at_calls() const override {
    return get_storage_at_calls_.value();
  }
  std::uint64_t get_code_calls() const override {
    return get_code_calls_.value();
  }
  void reset_counters() const override {
    get_storage_at_calls_.reset();
    get_code_calls_.reset();
  }

 private:
  const Blockchain& chain_;
  mutable obs::Counter get_storage_at_calls_;
  mutable obs::Counter get_code_calls_;
};

}  // namespace proxion::chain
