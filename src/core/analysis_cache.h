// Code-hash-keyed memoization for the sweep pipeline (the amortization layer
// behind §6.1's throughput claim). Every downstream stage of the pipeline
// used to recompute the same per-bytecode artifacts — the linear-sweep
// disassembly, the dispatcher-pattern selector list, and the CRUSH-style
// storage profile — once per stage and once per proxy/logic pair, even
// though all three are pure functions of the code blob. This cache computes
// each artifact at most once per distinct code hash and shares it across
// the stages and contracts of one pipeline run; the pipeline empties it
// before run() returns.
//
// Concurrency: the entry table is sharded N ways (lock striping on the code
// hash) so the sweep's workers rarely contend; each entry then carries its
// own mutex, so two workers racing on the *same* blob serialize only with
// each other and the loser reuses the winner's artifact instead of
// recomputing it. Entries are never evicted within a run — determinism with
// the cache on vs off is part of the contract (tested).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/storage_profile.h"
#include "crypto/keccak.h"
#include "evm/disassembler.h"
#include "obs/metrics.h"
#include "static/layout.h"
#include "static/provenance.h"

namespace proxion::core {

struct AnalysisCacheStats {
  std::uint64_t disassembly_hits = 0;
  std::uint64_t disassembly_misses = 0;
  std::uint64_t selector_hits = 0;
  std::uint64_t selector_misses = 0;
  std::uint64_t profile_hits = 0;
  std::uint64_t profile_misses = 0;
  std::uint64_t static_hits = 0;
  std::uint64_t static_misses = 0;
  std::uint64_t layout_hits = 0;
  std::uint64_t layout_misses = 0;
  /// Entries created over the cache's lifetime: one per distinct code hash
  /// per run.
  std::uint64_t entries = 0;

  std::uint64_t hits() const noexcept {
    return disassembly_hits + selector_hits + profile_hits + static_hits +
           layout_hits;
  }
  std::uint64_t misses() const noexcept {
    return disassembly_misses + selector_misses + profile_misses +
           static_misses + layout_misses;
  }
};

class AnalysisCache {
 public:
  /// `shards` is clamped to at least 1; a power of two keeps the stripe
  /// selection a cheap mask but any count works.
  explicit AnalysisCache(unsigned shards = 16);

  AnalysisCache(const AnalysisCache&) = delete;
  AnalysisCache& operator=(const AnalysisCache&) = delete;

  /// The linear-sweep disassembly of `code` (keyed by `code_hash`, which the
  /// caller must have computed from the same bytes). Computed once per hash.
  std::shared_ptr<const evm::Disassembly> disassembly(
      const crypto::Hash256& code_hash, evm::BytesView code);

  /// The sorted, deduped dispatcher-selector list (§5.1 extraction).
  /// Computes (and caches) the disassembly as a byproduct when absent.
  std::shared_ptr<const std::vector<std::uint32_t>> selectors(
      const crypto::Hash256& code_hash, evm::BytesView code);

  /// The CRUSH-style storage profile (§5.2). Also computed off the cached
  /// disassembly.
  std::shared_ptr<const StorageProfile> storage_profile(
      const crypto::Hash256& code_hash, evm::BytesView code);

  /// The static-tier report (CFG recovery + DELEGATECALL provenance): a pure
  /// function of the bytecode, computed once per blob per run. Also computed
  /// off the cached disassembly.
  std::shared_ptr<const static_analysis::StaticReport> static_report(
      const crypto::Hash256& code_hash, evm::BytesView code);

  /// The inferred storage layout (static/layout.h): pure function of the
  /// bytecode, derived from the cached static report's CFG. Computes (and
  /// caches) the disassembly and static report as byproducts when absent.
  std::shared_ptr<const static_analysis::StorageLayout> layout(
      const crypto::Hash256& code_hash, evm::BytesView code);

  AnalysisCacheStats stats() const;
  unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

  /// Drops every cached entry. Requires quiescence (no concurrent accessor
  /// calls). The counters, `entries` included, keep their lifetime totals.
  /// The pipeline calls this before every run() returns, so peak memory
  /// tracks one run's working set and no entry outlives the run that
  /// filled it.
  void clear();

 private:
  struct Entry {
    std::mutex mu;
    std::shared_ptr<const evm::Disassembly> dis;
    std::shared_ptr<const std::vector<std::uint32_t>> selectors;
    std::shared_ptr<const StorageProfile> profile;
    std::shared_ptr<const static_analysis::StaticReport> static_report;
    std::shared_ptr<const static_analysis::StorageLayout> layout;
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<crypto::Hash256, std::shared_ptr<Entry>,
                       crypto::Hash256Hasher>
        map;
  };

  std::shared_ptr<Entry> entry_for(const crypto::Hash256& code_hash);
  /// Computes the disassembly if absent; caller holds `entry.mu`.
  const std::shared_ptr<const evm::Disassembly>& ensure_disassembly(
      Entry& entry, evm::BytesView code);
  /// Computes the static report if absent (with hit/miss accounting);
  /// caller holds `entry.mu`.
  const std::shared_ptr<const static_analysis::StaticReport>&
  ensure_static_report(Entry& entry, evm::BytesView code);

  std::vector<std::unique_ptr<Shard>> shards_;

  // Hit/miss accounting on the shared telemetry counter primitive (sharded
  // relaxed atomics); stats() reads are point-in-time snapshots as before.
  obs::Counter disassembly_hits_;
  obs::Counter disassembly_misses_;
  obs::Counter selector_hits_;
  obs::Counter selector_misses_;
  obs::Counter profile_hits_;
  obs::Counter profile_misses_;
  obs::Counter static_hits_;
  obs::Counter static_misses_;
  obs::Counter layout_hits_;
  obs::Counter layout_misses_;
  obs::Counter entries_;
};

/// Striped "compute at most once per key" map, used for the pipeline's
/// per-run proxy/logic pair outcomes and code-blob table. Unlike a
/// plain guarded map, an entry being computed leaves an in-flight marker:
/// a second thread asking for the same key *waits* for the first result
/// instead of redundantly running the (expensive) computation — the seed's
/// Phase B let both threads miss and both run the collision detectors.
template <typename Key, typename Value, typename Hasher = std::hash<Key>>
class StripedOnceMap {
 public:
  explicit StripedOnceMap(unsigned shards = 16) {
    if (shards == 0) shards = 1;
    shards_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  StripedOnceMap(const StripedOnceMap&) = delete;
  StripedOnceMap& operator=(const StripedOnceMap&) = delete;

  /// Returns the value for `key`, running `fn` exactly once across all
  /// threads for a given key. Concurrent callers on an in-flight key block
  /// until the computing thread publishes. If `fn` throws, the marker is
  /// cleared (waiters see the failure and one of them retries the compute
  /// on its next call) and the exception propagates to the computing caller.
  template <typename Fn>
  Value get_or_compute(const Key& key, Fn&& fn) {
    Shard& s = *shards_[Hasher{}(key) % shards_.size()];
    Slot* slot = nullptr;
    {
      std::unique_lock<std::mutex> lk(s.mu);
      auto [it, inserted] = s.map.try_emplace(key);
      slot = &it->second;  // element references survive rehash
      if (!inserted) {
        if (slot->state == State::kComputing) {
          waits_.add(1);
          s.cv.wait(lk, [&] { return slot->state != State::kComputing; });
        }
        if (slot->state == State::kReady) {
          hits_.add(1);
          return slot->value;
        }
        // kFailed: the previous computation threw; take over the marker.
      }
      slot->state = State::kComputing;
    }
    misses_.add(1);
    try {
      Value v = fn();
      std::lock_guard<std::mutex> lk(s.mu);
      slot->value = std::move(v);
      slot->state = State::kReady;
      s.cv.notify_all();
      return slot->value;
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(s.mu);
        slot->state = State::kFailed;
      }
      s.cv.notify_all();
      throw;
    }
  }

  std::uint64_t hits() const noexcept { return hits_.value(); }
  std::uint64_t misses() const noexcept { return misses_.value(); }
  /// Number of times a caller blocked on another thread's in-flight compute.
  std::uint64_t waits() const noexcept { return waits_.value(); }

  /// Drops every entry. Requires quiescence — a concurrent get_or_compute()
  /// holding an in-flight marker would be left waiting on an erased slot.
  /// Counters keep their lifetime totals.
  void clear() {
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s->mu);
      s->map.clear();
    }
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s->mu);
      n += s->map.size();
    }
    return n;
  }

 private:
  enum class State : std::uint8_t { kComputing, kReady, kFailed };
  struct Slot {
    State state = State::kComputing;
    Value value{};
  };
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<Key, Slot, Hasher> map;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter waits_;
};

}  // namespace proxion::core
