// Resilience primitives for talking to an unreliable backend: retry shaping
// (exponential backoff with decorrelated jitter, bounded attempt budget,
// injectable sleep so tests never wall-clock wait), a per-backend circuit
// breaker (closed -> open after N consecutive failures, half-open probe after
// a cooldown), and a cooperative per-unit-of-work watchdog. All of it is
// backend-agnostic — the archive-node decorators in chain/ compose these.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>

namespace proxion::util {

/// Shape of one call's retry loop. `max_attempts` is the total attempt
/// budget including the first try (1 = never retry). Delays follow the
/// decorrelated-jitter scheme: next = base + rand() % (min(cap, prev*3) -
/// base), so concurrent retriers spread out instead of thundering in
/// lockstep.
struct RetryPolicy {
  unsigned max_attempts = 4;
  std::uint32_t base_delay_us = 50;
  std::uint32_t max_delay_us = 5'000;
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

/// One call's backoff state. Not thread-safe; make one per retry loop.
class BackoffSequence {
 public:
  explicit BackoffSequence(const RetryPolicy& policy,
                           std::uint64_t salt = 0) noexcept
      : policy_(policy), state_(policy.jitter_seed ^ salt),
        prev_(policy.base_delay_us) {}

  /// Next delay in microseconds (decorrelated jitter, capped).
  std::uint32_t next() noexcept;

 private:
  RetryPolicy policy_;
  std::uint64_t state_;
  std::uint32_t prev_;
};

struct CircuitBreakerConfig {
  /// Consecutive failures (across all keys) before the breaker opens. High
  /// by default: scattered per-contract faults must not trip it, only a
  /// backend that is failing everything in a row.
  unsigned failure_threshold = 32;
  /// How long an open breaker fast-fails before letting one probe through.
  std::uint32_t cooldown_us = 1'000;
};

/// Classic three-state breaker. Thread-safe; the clock is injectable so the
/// open -> half-open transition is testable without sleeping. The healthy
/// case takes no lock: while the breaker is quiet (closed, no consecutive
/// failures, no probe in flight) allow() and on_success() only read an
/// atomic flag, which every transition under the mutex sets or clears.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };
  /// Monotonic microsecond clock.
  using Clock = std::function<std::uint64_t()>;

  explicit CircuitBreaker(CircuitBreakerConfig config = {}, Clock clock = {});

  /// May this call proceed? Open -> false until the cooldown elapses, then
  /// half-open admits exactly one probe; the rest fast-fail until the probe
  /// resolves via on_success/on_failure.
  bool allow();
  void on_success();
  void on_failure();

  /// Back to closed with zeroed failure count (e.g. when a resume pass
  /// declares the backend healthy again). Trip count is preserved.
  void reset();

  State state() const;
  std::uint64_t trips() const noexcept {
    return trips_.load(std::memory_order_relaxed);
  }

  /// Observe state transitions (open/half-open/closed) — the introspection
  /// plane publishes them to /healthz and the event log. Invoked OUTSIDE the
  /// breaker's lock, after the transition committed, so the listener may
  /// call back into the breaker (state(), trips()) freely; with concurrent
  /// transitions, notifications can arrive out of order (each carries the
  /// state its own transition produced, not necessarily the latest). Set
  /// before the breaker sees traffic; not thread-safe against in-flight
  /// allow()/on_*() calls.
  using StateListener = std::function<void(State)>;
  void set_state_listener(StateListener listener) {
    listener_ = std::move(listener);
  }

 private:
  void trip_locked(std::uint64_t now);
  void notify(State s) {
    if (listener_) listener_(s);
  }

  CircuitBreakerConfig config_;
  Clock clock_;
  StateListener listener_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  unsigned consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  std::uint64_t reopen_at_us_ = 0;
  /// Closed with zero consecutive failures and no probe in flight. Written
  /// only under mu_; read without it by the allow()/on_success() fast path.
  std::atomic<bool> quiet_{true};
  std::atomic<std::uint64_t> trips_{0};
};

/// Thrown by Watchdog::check when a unit of work exceeds its wall budget.
class WatchdogExpired : public std::runtime_error {
 public:
  explicit WatchdogExpired(const std::string& what)
      : std::runtime_error(what) {}
};

/// Cooperative wall-clock budget for one unit of work. The holder calls
/// check() at its own cancellation points; a budget of 0 disables the dog.
class Watchdog {
 public:
  explicit Watchdog(double budget_ms) noexcept
      : budget_ms_(budget_ms), start_(std::chrono::steady_clock::now()) {}

  double elapsed_ms() const noexcept {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  bool expired() const noexcept {
    return budget_ms_ > 0.0 && elapsed_ms() > budget_ms_;
  }
  /// Throws WatchdogExpired naming `where` if the budget is spent.
  void check(const char* where) const;

 private:
  double budget_ms_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace proxion::util
