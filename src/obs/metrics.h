// Process-wide structured telemetry: named counters, gauges, and
// log-bucketed latency histograms behind a single registry, replacing the
// hand-rolled `std::atomic<std::uint64_t>` counters that had grown
// independently in crypto/ (keccak invocations), chain/ (archive RPC
// counters), util/ (thread-pool steal/executed counts), and core/ (cache
// hit/miss accounting).
//
// Hot-path contract: recording is lock-free and wait-free-in-practice — a
// Counter::add is one relaxed fetch_add on a thread-sharded cache line, a
// Histogram::record is a handful of relaxed atomic ops on a sharded bucket
// array. Nothing on the record path allocates, takes a mutex, or issues a
// fence stronger than relaxed. Registry lookups (name -> metric) DO take a
// mutex and are meant to be done once at setup; callers keep the returned
// reference, which is stable for the registry's lifetime.
//
// Reads (value(), snapshot()) are racy-by-design point-in-time sums of the
// shards, exactly like the relaxed counter snapshots the seed already used:
// call them after the recording threads quiesced when exact totals matter.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace proxion::obs {

/// Index used to spread hot-path recording across shards: each thread gets a
/// stable small integer on first use. Intentionally NOT the worker index of
/// any particular pool — telemetry is recorded from arbitrary threads.
unsigned thread_shard() noexcept;

/// Global telemetry master switch (relaxed atomic). The *disabled* state is
/// the one with a strict overhead contract: instrumentation points that are
/// not load-bearing for correctness (span recording, latency stopwatches)
/// must gate on this or on a null pointer — one predictable branch, nothing
/// else. Always-on counters that existing accessors/tests depend on (keccak
/// invocations, archive RPC counts) do not gate: they cost the same relaxed
/// add they always did.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonic counter, sharded across cache-line-padded atomics so concurrent
/// recorders don't bounce one line. value() sums the shards.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    cells_[thread_shard() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  /// Not atomic with respect to concurrent add(); call at quiescence.
  void reset() noexcept {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr unsigned kShards = 16;  // power of two (mask selection)
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kShards> cells_{};
};

/// Last-writer-wins signed gauge (queue depths, in-flight counts).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Small summary of a histogram, cheap to copy into report structs.
/// Percentiles are bucket-midpoint estimates with bounded relative error
/// (<= 1/8, the histogram's sub-bucket resolution), clamped to the observed
/// [min, max].
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

class HistogramSnapshot;

/// Log-bucketed histogram over uint64 values (latencies in nanoseconds,
/// step counts, ...). Bucketing is HDR-style: 8 sub-buckets per power of
/// two, so any recorded value lands in a bucket whose width is at most 1/8
/// of its lower bound — percentile estimates carry <= 12.5% relative error
/// by construction. 496 buckets cover the full uint64 range; values below 8
/// get exact unit buckets.
///
/// Recording is sharded: each shard owns its own bucket array + count/sum/
/// min/max atomics, all updated with relaxed operations. snapshot() merges
/// the shards into an immutable view for percentile math and cross-histogram
/// merging.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 3;
  static constexpr unsigned kSubBuckets = 1u << kSubBits;  // 8
  static constexpr unsigned kBucketCount = (64 - kSubBits + 1) * kSubBuckets;

  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Bucket containing `v`. Exact at boundaries: bucket_lower_bound(i) is
  /// the smallest value mapping to bucket i (tested against the inverse).
  static unsigned bucket_index(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<unsigned>(v);
    const unsigned octave = std::bit_width(v) - 1;  // 2^octave <= v
    const unsigned sub = static_cast<unsigned>(
        (v >> (octave - kSubBits)) & (kSubBuckets - 1));
    return (octave - kSubBits + 1) * kSubBuckets + sub;
  }
  static std::uint64_t bucket_lower_bound(unsigned index) noexcept {
    if (index < kSubBuckets) return index;
    const unsigned q = index / kSubBuckets;  // >= 1
    const unsigned sub = index % kSubBuckets;
    return (std::uint64_t{kSubBuckets} + sub) << (q - 1);
  }
  /// Largest value mapping to bucket `index` (UINT64_MAX for the last).
  static std::uint64_t bucket_upper_bound(unsigned index) noexcept {
    if (index + 1 >= kBucketCount) return ~std::uint64_t{0};
    return bucket_lower_bound(index + 1) - 1;
  }

  void record(std::uint64_t v) noexcept;
  HistogramSnapshot snapshot() const;
  HistogramSummary summary() const;
  std::uint64_t count() const noexcept;
  /// Not atomic with respect to concurrent record(); call at quiescence
  /// (the pipeline resets its per-run histograms between runs).
  void reset() noexcept;

 private:
  static constexpr unsigned kShards = 4;  // power of two
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kBucketCount> buckets{};
  };
  std::unique_ptr<Shard[]> shards_;
};

/// Immutable merged view of a histogram; supports merge (for combining
/// histograms across pipelines/threads) and rank-based percentiles.
class HistogramSnapshot {
 public:
  std::array<std::uint64_t, Histogram::kBucketCount> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = ~std::uint64_t{0};
  std::uint64_t max = 0;

  void merge(const HistogramSnapshot& other);
  /// Value estimate at percentile p in [0, 100]: the midpoint of the bucket
  /// containing the ceil(p/100 * count)-th smallest sample, clamped to the
  /// observed [min, max] (both of which lie inside that bucket whenever the
  /// clamp fires). 0 when empty.
  double percentile(double p) const;
  HistogramSummary summary() const;
};

/// True when `name` is a valid metric name: nonempty, drawn entirely from
/// `[a-zA-Z0-9_.:]`, and not starting with a digit. The charset is the
/// Prometheus name charset plus `.` (our internal namespacing separator,
/// sanitized to `_` at exposition) — enforcing it at REGISTRATION means the
/// exposition renderer can never emit a malformed line, no matter what was
/// recorded.
bool valid_metric_name(const std::string& name) noexcept;

/// Process-wide (or per-component: it is instantiable) name -> metric
/// registry. References returned by counter()/gauge()/histogram() stay valid
/// for the registry's lifetime; lookups are mutex-guarded and intended for
/// setup paths, not hot loops.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registration validates the name (see valid_metric_name) and throws
  /// std::invalid_argument on violation — a misnamed metric is a programming
  /// error caught at the first setup-path call, never a malformed exposition
  /// line discovered by a scraper.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Read-only lookup without creating: null when no histogram of that name
  /// was ever registered. The durable sharded driver uses this to merge a
  /// pipeline's per-shard histogram snapshots into sweep-wide percentiles.
  const Histogram* find_histogram(const std::string& name) const;

  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramSummary> histograms;
  };
  Snapshot snapshot() const;

  /// Full bucket-level histogram views (Snapshot carries only summaries):
  /// what the Prometheus renderer needs for `_bucket` series. Same
  /// racy-by-design consistency as snapshot().
  std::map<std::string, HistogramSnapshot> histogram_snapshots() const;

  /// Zero every metric (bench/test convenience; quiescence required).
  void reset();

  /// The process-wide instance absorbing the formerly scattered counters
  /// (crypto.keccak.*, chain.archive.*, threadpool.*).
  static Registry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace proxion::obs
