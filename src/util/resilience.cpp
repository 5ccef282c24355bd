#include "util/resilience.h"

#include <algorithm>

namespace proxion::util {

namespace {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint32_t BackoffSequence::next() noexcept {
  state_ = splitmix64(state_);
  const std::uint32_t base = policy_.base_delay_us;
  const std::uint64_t grown = static_cast<std::uint64_t>(prev_) * 3;
  const std::uint32_t cap = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      grown, policy_.max_delay_us));
  const std::uint32_t span = cap > base ? cap - base : 0;
  const std::uint32_t delay =
      base + (span == 0 ? 0 : static_cast<std::uint32_t>(state_ % span));
  prev_ = delay;
  return delay;
}

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config, Clock clock)
    : config_(config), clock_(clock ? std::move(clock) : steady_now_us) {
  if (config_.failure_threshold == 0) config_.failure_threshold = 1;
}

bool CircuitBreaker::allow() {
  if (quiet_.load(std::memory_order_acquire)) return true;
  bool transitioned = false;
  bool admit = true;
  {
    std::lock_guard<std::mutex> lk(mu_);
    switch (state_) {
      case State::kClosed:
        admit = true;
        break;
      case State::kOpen:
        if (clock_() >= reopen_at_us_) {
          state_ = State::kHalfOpen;
          probe_in_flight_ = true;
          transitioned = true;
          admit = true;
        } else {
          admit = false;
        }
        break;
      case State::kHalfOpen:
        if (!probe_in_flight_) {
          probe_in_flight_ = true;
          admit = true;
        } else {
          admit = false;
        }
        break;
    }
  }
  if (transitioned) notify(State::kHalfOpen);
  return admit;
}

void CircuitBreaker::on_success() {
  // Quiet already: a success changes nothing.
  if (quiet_.load(std::memory_order_acquire)) return;
  bool transitioned;
  {
    std::lock_guard<std::mutex> lk(mu_);
    transitioned = state_ != State::kClosed;
    consecutive_failures_ = 0;
    probe_in_flight_ = false;
    state_ = State::kClosed;
    quiet_.store(true, std::memory_order_release);
  }
  if (transitioned) notify(State::kClosed);
}

void CircuitBreaker::on_failure() {
  bool tripped = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    quiet_.store(false, std::memory_order_release);
    ++consecutive_failures_;
    if (state_ == State::kHalfOpen) {
      trip_locked(clock_());
      tripped = true;
    } else if (state_ == State::kClosed &&
               consecutive_failures_ >= config_.failure_threshold) {
      trip_locked(clock_());
      tripped = true;
    }
  }
  if (tripped) notify(State::kOpen);
}

void CircuitBreaker::reset() {
  bool transitioned;
  {
    std::lock_guard<std::mutex> lk(mu_);
    transitioned = state_ != State::kClosed;
    state_ = State::kClosed;
    consecutive_failures_ = 0;
    probe_in_flight_ = false;
    quiet_.store(true, std::memory_order_release);
  }
  if (transitioned) notify(State::kClosed);
}

void CircuitBreaker::trip_locked(std::uint64_t now) {
  state_ = State::kOpen;
  reopen_at_us_ = now + config_.cooldown_us;
  probe_in_flight_ = false;
  consecutive_failures_ = 0;
  trips_.fetch_add(1, std::memory_order_relaxed);
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lk(mu_);
  return state_;
}

void Watchdog::check(const char* where) const {
  if (expired()) {
    throw WatchdogExpired(std::string("watchdog budget exceeded in ") + where);
  }
}

}  // namespace proxion::util
