#include "spans.h"

#include <time.h>

#include <cerrno>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

/// Raw spans kept for the Chrome trace across all threads; beyond it only
/// the aggregates grow.
constexpr std::uint64_t kRawSpanCap = 200'000;

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_raw_count{0};

struct Frame {
  const char* layer;
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t child_ns;
  bool nested_in_layer;  // an enclosing open span has the same layer
};

struct Raw {
  const char* layer;
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

struct Agg {
  std::uint64_t count = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t self_ns = 0;
};

struct ThreadBuf {
  std::uint32_t tid = 0;
  std::vector<Frame> stack;
  std::vector<Raw> raw;
  // Keyed by the literal pointers; merged by string value at report time.
  std::map<std::pair<const char*, const char*>, Agg> agg;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuf>> bufs;
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadBuf& this_thread_buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    r.bufs.push_back(std::make_unique<ThreadBuf>());
    buf = r.bufs.back().get();
    buf->tid = static_cast<std::uint32_t>(r.bufs.size());
  }
  return *buf;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void sleep_until(std::uint64_t deadline_ns) {
  // steady_clock is CLOCK_MONOTONIC on Linux.
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000ULL);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000ULL);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* layer, const char* name) : active_(tracing()) {
  if (!active_) return;
  ThreadBuf& buf = this_thread_buf();
  bool nested = false;
  for (const Frame& f : buf.stack) {
    if (f.layer == layer) nested = true;
  }
  buf.stack.push_back(Frame{layer, name, now_ns(), 0, nested});
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end = now_ns();
  ThreadBuf& buf = this_thread_buf();
  const Frame f = buf.stack.back();
  buf.stack.pop_back();
  const std::uint64_t dur = end - f.start_ns;
  Agg& a = buf.agg[{f.layer, f.name}];
  ++a.count;
  if (!f.nested_in_layer) a.busy_ns += dur;
  a.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  if (!buf.stack.empty()) buf.stack.back().child_ns += dur;
  if (g_raw_count.fetch_add(1, std::memory_order_relaxed) < kRawSpanCap) {
    buf.raw.push_back(Raw{f.layer, f.name, f.start_ns, dur});
  }
}

std::map<std::string, LayerTotals> layer_totals() {
  std::map<std::string, LayerTotals> out;
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  for (const auto& buf : r.bufs) {
    for (const auto& [key, agg] : buf->agg) {
      LayerTotals& t = out[key.first];
      t.count += agg.count;
      t.busy_ms += static_cast<double>(agg.busy_ns) / 1e6;
      t.self_ms += static_cast<double>(agg.self_ns) / 1e6;
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path, std::uint64_t* written,
                        std::uint64_t* dropped) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  std::uint64_t origin = UINT64_MAX;
  for (const auto& buf : r.bufs) {
    for (const Raw& s : buf->raw) origin = std::min(origin, s.start_ns);
  }
  std::uint64_t n = 0;
  std::fputs("{\"traceEvents\":[", f);
  for (const auto& buf : r.bufs) {
    for (const Raw& s : buf->raw) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
                   n == 0 ? "" : ",\n", s.name, s.layer,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3, buf->tid);
      ++n;
    }
  }
  std::fputs("]}\n", f);
  const bool ok = std::fclose(f) == 0;
  const std::uint64_t total = g_raw_count.load(std::memory_order_relaxed);
  if (written != nullptr) *written = n;
  if (dropped != nullptr) *dropped = total > n ? total - n : 0;
  return ok;
}

}  // namespace perfbench
