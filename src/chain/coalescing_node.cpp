#include "chain/coalescing_node.h"

#include <algorithm>

namespace proxion::chain {

namespace {

/// Process-wide coalescer efficacy counters (aggregated across instances),
/// cached so the hot path skips the registry's name lookup.
obs::Counter& global_exact_hits() {
  static obs::Counter& c =
      obs::Registry::global().counter("chain.coalescer.exact_hits");
  return c;
}
obs::Counter& global_interval_hits() {
  static obs::Counter& c =
      obs::Registry::global().counter("chain.coalescer.interval_hits");
  return c;
}
obs::Counter& global_misses() {
  static obs::Counter& c =
      obs::Registry::global().counter("chain.coalescer.misses");
  return c;
}

}  // namespace

CoalescingArchiveNode::CoalescingArchiveNode(const IArchiveNode& inner,
                                             unsigned shards)
    : inner_(inner), shard_count_(shards == 0 ? 1 : shards),
      shards_(std::make_unique<Shard[]>(shard_count_)) {}

std::vector<CoalescingArchiveNode::Timeline::Point>::const_iterator
CoalescingArchiveNode::Timeline::lower_bound(std::uint64_t height) const {
  return std::lower_bound(
      points.begin(), points.end(), height,
      [](const Point& p, std::uint64_t h) { return p.first < h; });
}

void CoalescingArchiveNode::Timeline::put(std::uint64_t height,
                                          const U256& value) {
  const auto at = points.begin() + (lower_bound(height) - points.cbegin());
  if (at != points.end() && at->first == height) {
    at->second = value;
  } else {
    points.insert(at, Point{height, value});
  }
}

bool CoalescingArchiveNode::lookup_locked(const Shard& shard,
                                          const SlotKey& key,
                                          std::uint64_t height,
                                          U256* out) const {
  const auto it = shard.cache.find(key);
  if (it == shard.cache.end()) return false;
  const Timeline& timeline = it->second;
  const auto above = timeline.lower_bound(height);
  // Exact sealed observation at this height.
  if (above != timeline.points.end() && above->first == height) {
    exact_hits_.fetch_add(1, std::memory_order_relaxed);
    global_exact_hits().add(1);
    *out = above->second;
    return true;
  }
  // Interval rule: sealed neighbours below and above with the same value
  // mean the slot never changed in between (append-only chain + Algorithm
  // 1's uniqueness assumption), so the probe is answerable from cache.
  if (above == timeline.points.begin() || above == timeline.points.end()) {
    return false;
  }
  const auto below = std::prev(above);
  if (below->second == above->second) {
    interval_hits_.fetch_add(1, std::memory_order_relaxed);
    global_interval_hits().add(1);
    *out = below->second;
    return true;
  }
  return false;
}

U256 CoalescingArchiveNode::get_storage_at(const Address& account,
                                           const U256& slot,
                                           std::uint64_t block) const {
  const StorageQuery q{account, slot, block};
  return get_storage_at_many(std::span<const StorageQuery>(&q, 1))[0];
}

std::vector<U256> CoalescingArchiveNode::get_storage_at_many(
    std::span<const StorageQuery> queries) const {
  const std::size_t n = queries.size();
  std::vector<U256> out(n);
  std::vector<std::uint8_t> done(n, 0);
  std::size_t remaining = n;

  while (remaining > 0) {
    std::vector<std::size_t> owned;    // probes we claimed and will fetch
    std::vector<std::size_t> aliases;  // in-batch duplicates of owned probes
    std::vector<std::size_t> alias_owner;
    std::size_t first_blocked = n;  // a probe in flight on another thread

    for (std::size_t i = 0; i < n; ++i) {
      if (done[i] != 0) continue;
      const StorageQuery& q = queries[i];
      const SlotKey key{q.account, q.slot};

      // In-batch dedup against probes this pass already owns (batches are
      // small — a frontier per binary-search level — so linear scan wins
      // over a hash map here).
      std::size_t dup = owned.size();
      for (std::size_t k = 0; k < owned.size(); ++k) {
        const StorageQuery& o = queries[owned[k]];
        if (o.block == q.block && o.slot == q.slot && o.account == q.account) {
          dup = k;
          break;
        }
      }
      if (dup != owned.size()) {
        aliases.push_back(i);
        alias_owner.push_back(owned[dup]);
        continue;
      }

      Shard& shard = shard_for(key);
      std::unique_lock<std::mutex> lock(shard.mu);
      if (lookup_locked(shard, key, q.block, &out[i])) {
        done[i] = 1;
        --remaining;
        continue;
      }
      const auto fl = shard.inflight.find(key);
      if (fl != shard.inflight.end() && fl->second.count(q.block) != 0) {
        if (first_blocked == n) first_blocked = i;
        continue;  // another thread is fetching this exact probe
      }
      shard.inflight[key].insert(q.block);
      owned.push_back(i);
    }

    if (!owned.empty()) {
      std::vector<StorageQuery> batch;
      batch.reserve(owned.size());
      for (const std::size_t i : owned) batch.push_back(queries[i]);

      // Seal horizon is captured BEFORE the fetch: a height already below
      // head at this point is immutable for the whole fetch, whereas the
      // head block itself could be rewritten concurrently.
      const std::uint64_t sealed_below = inner_.latest_block();
      std::vector<U256> fetched;
      try {
        fetched = inner_.get_storage_at_many(batch);
      } catch (...) {
        // Release ownership so waiters can take over; cache nothing.
        for (const std::size_t i : owned) {
          const SlotKey key{queries[i].account, queries[i].slot};
          Shard& shard = shard_for(key);
          std::lock_guard<std::mutex> lock(shard.mu);
          const auto fl = shard.inflight.find(key);
          if (fl != shard.inflight.end()) {
            fl->second.erase(queries[i].block);
            if (fl->second.empty()) shard.inflight.erase(fl);
          }
          shard.cv.notify_all();
        }
        throw;
      }

      // Seal rule: only heights strictly below the pre-fetch head are
      // immutable (set_storage rewrites the open block), so only those are
      // cached. Head-height probes stay forward-always.
      misses_.fetch_add(owned.size(), std::memory_order_relaxed);
      global_misses().add(owned.size());
      for (std::size_t k = 0; k < owned.size(); ++k) {
        const std::size_t i = owned[k];
        const StorageQuery& q = queries[i];
        out[i] = fetched[k];
        done[i] = 1;
        --remaining;
        const SlotKey key{q.account, q.slot};
        Shard& shard = shard_for(key);
        std::lock_guard<std::mutex> lock(shard.mu);
        if (q.block < sealed_below) {
          shard.cache[key].put(q.block, fetched[k]);
        }
        const auto fl = shard.inflight.find(key);
        if (fl != shard.inflight.end()) {
          fl->second.erase(q.block);
          if (fl->second.empty()) shard.inflight.erase(fl);
        }
        shard.cv.notify_all();
      }
      for (std::size_t k = 0; k < aliases.size(); ++k) {
        out[aliases[k]] = out[alias_owner[k]];
        done[aliases[k]] = 1;
        --remaining;
      }
    } else if (remaining > 0 && first_blocked != n) {
      // Nothing to fetch ourselves: block until the owning thread commits
      // (next pass hits the cache) or fails (next pass claims ownership).
      const StorageQuery& q = queries[first_blocked];
      const SlotKey key{q.account, q.slot};
      Shard& shard = shard_for(key);
      std::unique_lock<std::mutex> lock(shard.mu);
      inflight_waits_.fetch_add(1, std::memory_order_relaxed);
      shard.cv.wait(lock, [&] {
        const auto fl = shard.inflight.find(key);
        return fl == shard.inflight.end() || fl->second.count(q.block) == 0;
      });
    }
    // else: everything resolved this pass, or aliases of a blocked probe —
    // loop and retry (the blocked owner path above is the only waiter).
  }
  return out;
}

void CoalescingArchiveNode::invalidate(const Address& account,
                                       const U256& slot) {
  const SlotKey key{account, slot};
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.cache.erase(key);
}

void CoalescingArchiveNode::clear() {
  for (unsigned s = 0; s < shard_count_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    shards_[s].cache.clear();
  }
}

CoalescingArchiveNode::Stats CoalescingArchiveNode::stats() const noexcept {
  Stats st;
  st.exact_hits = exact_hits_.load(std::memory_order_relaxed);
  st.interval_hits = interval_hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.inflight_waits = inflight_waits_.load(std::memory_order_relaxed);
  return st;
}

std::size_t CoalescingArchiveNode::cached_points() const {
  std::size_t total = 0;
  for (unsigned s = 0; s < shard_count_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    for (const auto& [key, timeline] : shards_[s].cache) {
      total += timeline.points.size();
    }
  }
  return total;
}

}  // namespace proxion::chain
