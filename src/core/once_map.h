// Striped "compute at most once per key" map, used for the pipeline's
// per-run proxy/logic pair outcomes and logic code blobs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace proxion::core {

/// Unlike a plain guarded map, an entry being computed leaves an in-flight
/// marker: a second thread asking for the same key *waits* for the first
/// result instead of redundantly running the (expensive) computation — the
/// seed's Phase B let both threads miss and both run the collision
/// detectors.
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
