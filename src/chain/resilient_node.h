// Retry/backoff + circuit-breaker decorator over any IArchiveNode. Every
// query runs under util::RetryPolicy (exponential backoff with decorrelated
// jitter, bounded attempt budget); a per-backend CircuitBreaker trips after
// a run of consecutive failures and half-opens on a probe after its
// cooldown, so a dead backend fails fast instead of stalling every worker in
// its full retry ladder. Terminal outcomes surface as RpcError kExhausted
// (budget spent) or kCircuitOpen (breaker fast-fail); transient errors never
// escape unless retries are exhausted.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>

#include "chain/archive_node.h"
#include "util/resilience.h"

namespace proxion::chain {

class ResilientArchiveNode final : public IArchiveNode {
 public:
  /// Injectable sleep (microseconds) so tests observe backoff without
  /// wall-clock waiting.
  using SleepFn = std::function<void(std::uint32_t)>;

  explicit ResilientArchiveNode(const IArchiveNode& inner,
                                util::RetryPolicy policy = {},
                                util::CircuitBreakerConfig breaker = {},
                                SleepFn sleep = {})
      : inner_(inner), policy_(policy), breaker_(breaker),
        sleep_(sleep ? std::move(sleep) : [](std::uint32_t us) {
          if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
        }) {
    if (policy_.max_attempts == 0) policy_.max_attempts = 1;
  }

  U256 get_storage_at(const Address& account, const U256& slot,
                      std::uint64_t block) const override {
    return with_retries("get_storage_at", [&] {
      return inner_.get_storage_at(account, slot, block);
    });
  }
  /// The whole batch rides one retry ladder: a mid-batch failure retries the
  /// batch from the top (the inner call returns no partial results).
  std::vector<U256> get_storage_at_many(
      std::span<const StorageQuery> queries) const override {
    return with_retries("get_storage_at_many", [&] {
      return inner_.get_storage_at_many(queries);
    });
  }
  Bytes get_code(const Address& account) const override {
    return with_retries("get_code", [&] { return inner_.get_code(account); });
  }
  std::uint64_t latest_block() const override { return inner_.latest_block(); }

  std::uint64_t get_storage_at_calls() const override {
    return inner_.get_storage_at_calls();
  }
  std::uint64_t get_code_calls() const override {
    return inner_.get_code_calls();
  }
  void reset_counters() const override { inner_.reset_counters(); }

  /// Backoff retries performed (i.e. attempts beyond each call's first).
  std::uint64_t retries() const noexcept {
    return retries_.load(std::memory_order_relaxed);
  }
  /// Backend failures observed (each failed attempt counts once).
  std::uint64_t faults_seen() const noexcept {
    return faults_.load(std::memory_order_relaxed);
  }
  /// Calls abandoned with kExhausted or kCircuitOpen.
  std::uint64_t giveups() const noexcept {
    return giveups_.load(std::memory_order_relaxed);
  }
  util::CircuitBreaker& breaker() const noexcept { return breaker_; }

 private:
  template <typename Fn>
  auto with_retries(const char* what, Fn&& fn) const -> decltype(fn()) {
    // Salted on the first retry, so a call that succeeds first time
    // touches no shared counter.
    std::optional<util::BackoffSequence> backoff;
    for (unsigned attempt = 1;; ++attempt) {
      if (!breaker_.allow()) {
        giveups_.fetch_add(1, std::memory_order_relaxed);
        throw RpcError(RpcErrorKind::kCircuitOpen,
                       std::string("circuit open, fast-failing ") + what);
      }
      try {
        auto result = fn();
        breaker_.on_success();
        return result;
      } catch (const RpcError& e) {
        faults_.fetch_add(1, std::memory_order_relaxed);
        breaker_.on_failure();
        if (!e.retriable() || attempt >= policy_.max_attempts) {
          giveups_.fetch_add(1, std::memory_order_relaxed);
          throw RpcError(RpcErrorKind::kExhausted,
                         std::string(what) + " failed after " +
                             std::to_string(attempt) +
                             " attempts; last error: " + e.what());
        }
        retries_.fetch_add(1, std::memory_order_relaxed);
        if (!backoff) {
          backoff.emplace(policy_,
                          jitter_salt_.fetch_add(1, std::memory_order_relaxed));
        }
        sleep_(backoff->next());
      }
    }
  }

  const IArchiveNode& inner_;
  util::RetryPolicy policy_;
  mutable util::CircuitBreaker breaker_;
  SleepFn sleep_;
  mutable std::atomic<std::uint64_t> jitter_salt_{0};
  mutable std::atomic<std::uint64_t> retries_{0};
  mutable std::atomic<std::uint64_t> faults_{0};
  mutable std::atomic<std::uint64_t> giveups_{0};
};

}  // namespace proxion::chain
