#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace proxion::obs {

namespace {
std::atomic<unsigned> g_next_thread_shard{0};
std::atomic<bool> g_enabled{true};
}  // namespace

unsigned thread_shard() noexcept {
  thread_local const unsigned shard =
      g_next_thread_shard.fetch_add(1, std::memory_order_relaxed);
  return shard;
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

// ---- Histogram ------------------------------------------------------------

Histogram::Histogram() : shards_(new Shard[kShards]) {}

void Histogram::record(std::uint64_t v) noexcept {
  Shard& s = shards_[thread_shard() & (kShards - 1)];
  s.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t seen = s.min.load(std::memory_order_relaxed);
  while (v < seen &&
         !s.min.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = s.max.load(std::memory_order_relaxed);
  while (v > seen &&
         !s.max.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  for (unsigned h = 0; h < kShards; ++h) {
    const Shard& s = shards_[h];
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.sum += s.sum.load(std::memory_order_relaxed);
    snap.min = std::min(snap.min, s.min.load(std::memory_order_relaxed));
    snap.max = std::max(snap.max, s.max.load(std::memory_order_relaxed));
    for (unsigned b = 0; b < kBucketCount; ++b) {
      snap.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

HistogramSummary Histogram::summary() const { return snapshot().summary(); }

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (unsigned h = 0; h < kShards; ++h) {
    total += shards_[h].count.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::reset() noexcept {
  for (unsigned h = 0; h < kShards; ++h) {
    Shard& s = shards_[h];
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

// ---- HistogramSnapshot ----------------------------------------------------

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (unsigned b = 0; b < Histogram::kBucketCount; ++b) {
    buckets[b] += other.buckets[b];
  }
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  const double clamped_p = std::clamp(p, 0.0, 100.0);
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped_p / 100.0 * static_cast<double>(count)));
  if (rank == 0) rank = 1;

  std::uint64_t cumulative = 0;
  for (unsigned b = 0; b < Histogram::kBucketCount; ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) {
      const std::uint64_t lo = Histogram::bucket_lower_bound(b);
      const std::uint64_t hi = Histogram::bucket_upper_bound(b);
      double v = (static_cast<double>(lo) + static_cast<double>(hi)) / 2.0;
      // The observed extremes live in (or beyond) this bucket whenever the
      // clamp fires, so clamping never leaves the bucket.
      v = std::min(v, static_cast<double>(max));
      v = std::max(v, static_cast<double>(min));
      return v;
    }
  }
  return static_cast<double>(max);
}

HistogramSummary HistogramSnapshot::summary() const {
  HistogramSummary s;
  s.count = count;
  s.sum = static_cast<double>(sum);
  if (count == 0) return s;
  s.min = min;
  s.max = max;
  s.mean = s.sum / static_cast<double>(count);
  s.p50 = percentile(50.0);
  s.p90 = percentile(90.0);
  s.p99 = percentile(99.0);
  return s;
}

// ---- Registry -------------------------------------------------------------

bool valid_metric_name(const std::string& name) noexcept {
  if (name.empty()) return false;
  if (name.front() >= '0' && name.front() <= '9') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':';
    if (!ok) return false;
  }
  return true;
}

namespace {
void require_valid_name(const std::string& name) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument(
        "obs: invalid metric name (must be [a-zA-Z0-9_.:], nonempty, not "
        "digit-led): \"" + name + "\"");
  }
}
}  // namespace

Counter& Registry::counter(const std::string& name) {
  require_valid_name(name);
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  require_valid_name(name);
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  require_valid_name(name);
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->summary();
  }
  return snap;
}

std::map<std::string, HistogramSnapshot> Registry::histogram_snapshots()
    const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, h] : histograms_) out[name] = h->snapshot();
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked: outlives all users
  return *instance;
}

}  // namespace proxion::obs
