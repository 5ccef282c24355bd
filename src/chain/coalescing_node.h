// Coalescing decorator over any IArchiveNode: collapses the overlapping
// (account, slot, height) probes that Algorithm 1's recursive binary search
// issues, in two ways:
//
//  1. Height-interval cache. Every answered probe whose height was already
//     sealed (height < inner latest_block() at insert time) is remembered as
//     a point on the slot's timeline. Because the chain is append-only, a
//     sealed observation can never change — and when two sealed points carry
//     the SAME value, the slot provably never changed between them (the
//     probes themselves are the evidence under Algorithm 1's uniqueness
//     assumption), so any probe at a height inside [h1, h2] is answered from
//     cache. This is exactly the overlap structure repeated binary searches
//     over the same slot produce.
//  2. In-flight dedup. Identical probes issued concurrently by different
//     sweep workers ride one backend fetch: the first becomes the owner, the
//     rest block on the shard's condition variable until the owner commits
//     (or fails, in which case a waiter takes over ownership).
//
// Probes at or above the inner node's current head are always forwarded and
// never cached: the open block can still be rewritten by the simulated
// chain's set_storage, so only sealed history is trusted. clear() drops
// everything — the pipeline calls it from shed_cross_run_state(), where the
// underlying chain may have been mutated arbitrarily between runs.
//
// Failures are never cached; an RpcError aborts the batch (no partial
// results), releases in-flight ownership, and propagates.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chain/archive_node.h"

namespace proxion::chain {

class CoalescingArchiveNode final : public IArchiveNode {
 public:
  explicit CoalescingArchiveNode(const IArchiveNode& inner,
                                 unsigned shards = 16);

  U256 get_storage_at(const Address& account, const U256& slot,
                      std::uint64_t block) const override;
  std::vector<U256> get_storage_at_many(
      std::span<const StorageQuery> queries) const override;

  Bytes get_code(const Address& account) const override {
    return inner_.get_code(account);
  }
  std::uint64_t latest_block() const override { return inner_.latest_block(); }

  std::uint64_t get_storage_at_calls() const override {
    return inner_.get_storage_at_calls();
  }
  std::uint64_t get_code_calls() const override {
    return inner_.get_code_calls();
  }
  void reset_counters() const override { inner_.reset_counters(); }

  /// Drops the cached timeline of one slot (all heights).
  void invalidate(const Address& account, const U256& slot);
  /// Drops every cached observation. Call whenever the underlying chain may
  /// have been mutated (the pipeline does, in shed_cross_run_state()).
  void clear();

  struct Stats {
    std::uint64_t exact_hits = 0;     // probe height had a cached point
    std::uint64_t interval_hits = 0;  // answered from an unchanged interval
    std::uint64_t misses = 0;         // forwarded to the inner node
    std::uint64_t inflight_waits = 0; // blocked on another thread's fetch
  };
  Stats stats() const noexcept;

  /// Cached timeline points across all slots (for tests / introspection).
  std::size_t cached_points() const;

 private:
  struct SlotKey {
    Address account;
    U256 slot;
    bool operator==(const SlotKey&) const = default;
  };
  struct SlotKeyHasher {
    std::size_t operator()(const SlotKey& k) const noexcept {
      const std::size_t a = evm::AddressHasher{}(k.account);
      const std::size_t s = evm::U256Hasher{}(k.slot);
      return a ^ (s + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
    }
  };

  /// Sealed observations of one slot: (height, value) ascending by height,
  /// so interval lookups are one lower_bound away. A flat sorted vector: a
  /// timeline holds one Algorithm 1 search's probes, a few dozen at most,
  /// and a sweep keeps one per probed proxy until the next shed — tree
  /// nodes would double its memory.
  struct Timeline {
    using Point = std::pair<std::uint64_t, U256>;
    std::vector<Point> points;

    std::vector<Point>::const_iterator lower_bound(std::uint64_t height) const;
    void put(std::uint64_t height, const U256& value);
  };

  struct Shard {
    mutable std::mutex mu;
    mutable std::condition_variable cv;
    std::unordered_map<SlotKey, Timeline, SlotKeyHasher> cache;
    /// Heights currently being fetched per slot (owned probes).
    std::unordered_map<SlotKey, std::set<std::uint64_t>, SlotKeyHasher>
        inflight;
  };

  Shard& shard_for(const SlotKey& key) const noexcept {
    return shards_[SlotKeyHasher{}(key) % shard_count_];
  }

  /// Cache lookup under the shard lock. Returns true on hit (value in *out)
  /// and records the hit kind in the stats counters.
  bool lookup_locked(const Shard& shard, const SlotKey& key,
                     std::uint64_t height, U256* out) const;

  const IArchiveNode& inner_;
  const unsigned shard_count_;
  std::unique_ptr<Shard[]> shards_;

  mutable std::atomic<std::uint64_t> exact_hits_{0};
  mutable std::atomic<std::uint64_t> interval_hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> inflight_waits_{0};
};

}  // namespace proxion::chain
