// Copy-on-write containers behind serve::Snapshot. A published snapshot is
// immutable and shared with readers; the next snapshot starts as a shallow
// copy of it (chunk and shard pointers only) and clones a chunk or shard
// the first time the single writer changes it. A publish therefore costs
// what its changed rows touch, and a publish with no changes copies no rows.
//
// "Shared" is read off the pointer's use count. That is exact here: while
// the writer builds snapshot N+1, snapshot N (its base) still holds every
// chunk and shard, so a use count of 1 can only mean the piece was created
// during this publish and no reader can reach it yet.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <vector>

namespace proxion::serve {

/// A sequence stored as fixed-size chunks. Readers get a const view (size,
/// empty, [], range-for); the writer appends and overwrites.
template <typename T, std::size_t kChunk>
class ChunkedVector {
  using Chunk = std::vector<T>;

 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const ChunkedVector* owner, std::size_t index)
        : owner_(owner), index_(index) {}
    reference operator*() const { return (*owner_)[index_]; }
    pointer operator->() const { return &(*owner_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator prev = *this;
      ++index_;
      return prev;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    const ChunkedVector* owner_ = nullptr;
    std::size_t index_ = 0;
  };

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const T& operator[](std::size_t i) const {
    return (*chunks_[i / kChunk])[i % kChunk];
  }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  // ---- writer side ---------------------------------------------------------
  // Each returns the number of shared chunks it had to copy (0 or 1).
  std::uint64_t push_back(const T& value) {
    std::uint64_t copied = 0;
    if (size_ % kChunk == 0) {
      chunks_.push_back(std::make_shared<Chunk>());
      chunks_.back()->reserve(kChunk);
    } else {
      copied = own(chunks_.size() - 1);
    }
    chunks_.back()->push_back(value);
    ++size_;
    return copied;
  }
  std::uint64_t set(std::size_t i, const T& value) {
    const std::uint64_t copied = own(i / kChunk);
    (*chunks_[i / kChunk])[i % kChunk] = value;
    return copied;
  }

 private:
  std::uint64_t own(std::size_t c) {
    if (chunks_[c].use_count() == 1) return 0;
    auto clone = std::make_shared<Chunk>();
    clone->reserve(kChunk);
    clone->assign(chunks_[c]->begin(), chunks_[c]->end());
    chunks_[c] = std::move(clone);
    return 1;
  }

  std::vector<std::shared_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

/// A hash map split into a fixed number of shards. Readers get find, size
/// and range-for over `[key, value]`; the writer inserts, updates and erases
/// through methods that copy a shard the first time they touch it.
template <typename K, typename V, typename Hasher, std::size_t kShards>
class ShardedMap {
  static_assert(std::has_single_bit(kShards),
                "shard count must be a power of two");
  using Map = std::unordered_map<K, V, Hasher>;

 public:
  using value_type = typename Map::value_type;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = typename Map::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = const value_type*;
    using reference = const value_type&;

    const_iterator() = default;
    reference operator*() const { return *it_; }
    pointer operator->() const { return &*it_; }
    const_iterator& operator++() {
      ++it_;
      settle();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator prev = *this;
      ++*this;
      return prev;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.shard_ == b.shard_ && (a.shard_ == kShards || a.it_ == b.it_);
    }

   private:
    friend class ShardedMap;
    const_iterator(const ShardedMap* owner, std::size_t shard,
                   typename Map::const_iterator it)
        : owner_(owner), shard_(shard), it_(it) {}
    /// Steps past exhausted or absent shards to the next entry, or to end.
    void settle() {
      while (shard_ < kShards) {
        const std::shared_ptr<Map>& s = owner_->shards_[shard_];
        if (s && it_ != s->cend()) return;
        ++shard_;
        if (shard_ < kShards && owner_->shards_[shard_]) {
          it_ = owner_->shards_[shard_]->cbegin();
        }
      }
    }

    const ShardedMap* owner_ = nullptr;
    std::size_t shard_ = kShards;
    typename Map::const_iterator it_{};
  };

  std::size_t size() const noexcept { return size_; }

  const_iterator find(const K& key) const {
    const std::size_t s = shard_of(key);
    if (!shards_[s]) return end();
    const auto it = shards_[s]->find(key);
    if (it == shards_[s]->cend()) return end();
    return const_iterator(this, s, it);
  }
  const_iterator begin() const {
    const_iterator it(this, 0,
                      shards_[0] ? shards_[0]->cbegin()
                                 : typename Map::const_iterator{});
    it.settle();
    return it;
  }
  const_iterator end() const { return const_iterator(this, kShards, {}); }

  // ---- writer side ---------------------------------------------------------
  /// The value under `key`, inserted value-initialized when absent.
  V& upsert(const K& key) {
    const auto [it, inserted] = own(shard_of(key)).try_emplace(key);
    if (inserted) ++size_;
    return it->second;
  }
  void erase(const K& key) { size_ -= own(shard_of(key)).erase(key); }

 private:
  static std::size_t shard_of(const K& key) {
    // Fibonacci hashing on the top bits: a shard's own buckets use the low
    // bits (modulo a prime), so the two choices stay independent.
    constexpr int kBits = std::countr_zero(kShards);
    const auto h = static_cast<std::uint64_t>(Hasher{}(key));
    if constexpr (kBits == 0) {
      return 0;
    } else {
      return static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ULL) >>
                                      (64 - kBits));
    }
  }
  Map& own(std::size_t s) {
    if (!shards_[s]) {
      shards_[s] = std::make_shared<Map>();
    } else if (shards_[s].use_count() > 1) {
      shards_[s] = std::make_shared<Map>(*shards_[s]);
    }
    return *shards_[s];
  }

  std::array<std::shared_ptr<Map>, kShards> shards_{};
  std::size_t size_ = 0;
};

}  // namespace proxion::serve
