// Telemetry decorator over any IArchiveNode: times every RPC *attempt*
// against an injectable clock, records the latency into a histogram, and
// (when a tracer is attached) emits one span per attempt. The pipeline
// stacks it UNDER the retry layer — ResilientArchiveNode -> TracingNode ->
// backend — so a call that retries three times shows three "rpc:*" spans
// and three histogram samples, which is what the paper's per-RPC cost
// accounting needs (§6.1 counts getStorageAt calls, not logical queries).
//
// Failed attempts are recorded too (span arg ok=0) before the RpcError
// propagates: fault latency is part of the latency distribution.
//
// Both sinks are optional; with histogram == nullptr and tracer == nullptr
// every query is a plain forward (the pipeline simply doesn't install the
// decorator in that case).
#pragma once

#include <utility>

#include "chain/archive_node.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace proxion::chain {

class TracingArchiveNode final : public IArchiveNode {
 public:
  TracingArchiveNode(const IArchiveNode& inner, obs::Histogram* latency_ns,
                     obs::Tracer* tracer, obs::TraceClock clock = {})
      : inner_(inner), latency_(latency_ns), tracer_(tracer),
        clock_(clock ? std::move(clock)
                     : obs::TraceClock(&obs::steady_now_ns)) {}

  U256 get_storage_at(const Address& account, const U256& slot,
                      std::uint64_t block) const override {
    return timed("rpc:get_storage_at",
                 [&] { return inner_.get_storage_at(account, slot, block); });
  }
  /// One histogram sample and one span for the whole batch (arg n = batch
  /// size); per-element spans would dominate the cost being measured.
  std::vector<U256> get_storage_at_many(
      std::span<const StorageQuery> queries) const override {
    const std::uint64_t start = clock_();
    try {
      auto result = inner_.get_storage_at_many(queries);
      finish_batch(start, static_cast<std::int64_t>(queries.size()));
      return result;
    } catch (...) {
      finish_batch(start, static_cast<std::int64_t>(queries.size()));
      throw;
    }
  }
  Bytes get_code(const Address& account) const override {
    return timed("rpc:get_code", [&] { return inner_.get_code(account); });
  }
  std::uint64_t latest_block() const override { return inner_.latest_block(); }

  std::uint64_t get_storage_at_calls() const override {
    return inner_.get_storage_at_calls();
  }
  std::uint64_t get_code_calls() const override {
    return inner_.get_code_calls();
  }
  void reset_counters() const override { inner_.reset_counters(); }

 private:
  template <typename Fn>
  auto timed(const char* name, Fn&& fn) const -> decltype(fn()) {
    const std::uint64_t start = clock_();
    try {
      auto result = fn();
      finish(name, start, /*ok=*/true);
      return result;
    } catch (...) {
      finish(name, start, /*ok=*/false);
      throw;
    }
  }

  void finish(const char* name, std::uint64_t start, bool ok) const {
    const std::uint64_t dur = clock_() - start;
    if (latency_ != nullptr) latency_->record(dur);
    if (tracer_ != nullptr) {
      tracer_->record(name, start, dur, "ok", ok ? 1 : 0);
    }
  }

  void finish_batch(std::uint64_t start, std::int64_t n) const {
    const std::uint64_t dur = clock_() - start;
    if (latency_ != nullptr) latency_->record(dur);
    if (tracer_ != nullptr) {
      tracer_->record("rpc:get_storage_at_many", start, dur, "n", n);
    }
  }

  const IArchiveNode& inner_;
  obs::Histogram* latency_;
  obs::Tracer* tracer_;
  obs::TraceClock clock_;
};

}  // namespace proxion::chain
