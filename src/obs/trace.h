// Low-overhead execution tracing for the sweep pipeline: completed spans are
// appended to per-thread ring buffers and can be exported as Chrome
// `trace_event` JSON — loadable in Perfetto / chrome://tracing — plus a
// line-delimited NDJSON event log for ad-hoc tooling and the live /spans
// endpoint.
//
// Hot-path design (the PR-3 tracing tax, shaved):
//   - span NAMES are interned once into a process-wide id table; a ring slot
//     stores a 16-bit id, never a pointer copy per export and never a
//     per-span std::string. The intern lookup is a TLS direct-mapped
//     pointer cache — one predictable hit for every literal after its first
//     use on a thread.
//   - ring SLOTS are four relaxed atomics (meta, arg, start, dur) published
//     by a release bump of the ring's `written` counter. That makes the
//     bulk readers (spans(), ndjson(), the /spans drain) safe to run WHILE
//     other threads record — a reader snapshots the window and drops any
//     record the writer may have been overwriting during the copy.
//   - the CLOCK has a branch-free-ish fast path: the default steady clock is
//     called directly (no std::function indirection), and set_coarse_clock()
//     switches span timestamps to a TLS-cached value refreshed every
//     kCoarseRefresh reads — one real clock read amortized over 32 spans,
//     at the cost of coarse (but still monotonic per thread) timestamps.
//
// Time comes from an injectable monotonic-nanosecond clock (the same
// testable-time convention as util::CircuitBreaker's microsecond clock), so
// tests drive a fake clock and get byte-identical trace files. The coarse
// option only applies to the built-in steady clock — injected clocks stay
// exact, deterministic tests included.
//
// Concurrency contract: record() may run concurrently from any number of
// threads, and spans()/chrome_trace_json()/ndjson()/recent_spans() may run
// concurrently with record() (see above). clear() still requires quiescence.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace proxion::obs {

/// Monotonic nanosecond clock; empty std::function = steady_clock.
using TraceClock = std::function<std::uint64_t()>;

/// steady_clock now, in nanoseconds since an arbitrary epoch.
std::uint64_t steady_now_ns() noexcept;

/// Process-wide span-name interning. Ids are stable for the process
/// lifetime; equal STRINGS get equal ids even from distinct pointers. Id 0
/// is reserved for "no name" (a null arg_name). The hot path is a TLS
/// direct-mapped cache keyed by pointer, so literals cost ~one compare per
/// call after first use; the slow path is a mutex-guarded map. The table
/// saturates at 65534 distinct names (further names collapse into a
/// sentinel) — far above any real instrumentation surface.
std::uint16_t intern_name(const char* name);
/// Stable storage for the interned string; nullptr for id 0 / unknown ids.
const char* interned_name(std::uint16_t id) noexcept;

/// One completed span, as drained from the rings. `name`/`arg_name` point
/// into the intern table (process-lifetime storage).
struct SpanRecord {
  const char* name = nullptr;
  const char* arg_name = nullptr;  // nullptr = no argument
  std::int64_t arg = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  // ring index, stable per recording thread
};

class Tracer {
 public:
  /// Real clock reads amortized per coarse-clock timestamp (see file
  /// comment); bounds the timestamp staleness to ~kCoarseRefresh spans.
  static constexpr std::uint32_t kCoarseRefresh = 32;

  /// `ring_capacity` bounds the completed spans kept per recording thread;
  /// older spans are overwritten (the export keeps the most recent window
  /// and reports how many were dropped).
  explicit Tracer(TraceClock clock = {}, std::size_t ring_capacity = 1 << 15);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t now() const {
    if (!default_clock_) return clock_();
    if (coarse_.load(std::memory_order_relaxed)) return coarse_now_ns(id_);
    return steady_now_ns();
  }

  /// Span timestamps from the TLS-cached coarse clock (default-clock tracers
  /// only; injected clocks are already cheap/fake and stay exact). May be
  /// toggled at any time; recording threads pick it up on their next span.
  void set_coarse_clock(bool on) noexcept {
    coarse_.store(on, std::memory_order_relaxed);
  }
  bool coarse_clock() const noexcept {
    return coarse_.load(std::memory_order_relaxed);
  }

  void record(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
              const char* arg_name = nullptr, std::int64_t arg = 0);

  /// All retained spans, sorted by (start, longest-first, tid) so parents
  /// precede their children at equal timestamps. Safe to call while other
  /// threads record: records the writers were overwriting during the copy
  /// are dropped, never returned torn.
  std::vector<SpanRecord> spans() const;
  /// The most recent `max_spans` across all rings (newest kept), same
  /// ordering and concurrency contract as spans(). The /spans endpoint's
  /// drain.
  std::vector<SpanRecord> recent_spans(std::size_t max_spans) const;
  std::uint64_t recorded() const;  // total record() calls (incl. dropped)
  std::uint64_t dropped() const;   // spans overwritten by ring wrap
  /// Empties every ring (the rings themselves stay registered to their
  /// threads). Quiescence required — the one remaining bulk operation that
  /// must not race record().
  void clear();

  /// Chrome trace_event JSON (object format, complete "X" events, ts/dur in
  /// microseconds). Loadable in Perfetto and chrome://tracing.
  std::string chrome_trace_json() const;
  /// One JSON object per line per span.
  std::string ndjson() const;
  /// ndjson() over recent_spans(max_spans).
  std::string ndjson_recent(std::size_t max_spans) const;
  bool write_chrome_trace(const std::string& path) const;
  bool write_ndjson(const std::string& path) const;

 private:
  /// One completed span in ring storage: relaxed atomics so concurrent
  /// drains are race-free; `meta` packs (name_id << 16) | arg_name_id.
  struct Slot {
    std::atomic<std::uint64_t> meta{0};
    std::atomic<std::int64_t> arg{0};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> dur_ns{0};
  };
  struct Ring {
    std::uint32_t tid = 0;
    /// Total spans ever recorded to this ring. Written only by the owning
    /// thread (release after the slot stores); readers acquire it to bound
    /// their copy window.
    std::atomic<std::uint64_t> written{0};
    std::vector<Slot> buf;  // fixed at ring creation: capacity_ slots
  };

  Ring& ring_for_this_thread();
  /// Copy one ring's consistent window into `out` (drops in-doubt records).
  void drain_ring(const Ring& ring, std::vector<SpanRecord>& out) const;
  static std::uint64_t coarse_now_ns(std::uint64_t tracer_id);

  const std::uint64_t id_;  // process-unique; keys the thread-local cache
  const std::size_t capacity_;
  const bool default_clock_;
  std::atomic<bool> coarse_{false};
  TraceClock clock_;
  mutable std::mutex mu_;  // guards ring registration and the rings_ vector
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// RAII span: times construction -> destruction against the tracer's clock.
/// A null tracer makes every operation a no-op (one branch), which is the
/// telemetry-disabled hot path.
class Span {
 public:
  Span(Tracer* tracer, const char* name) noexcept
      : tracer_(tracer), name_(name), start_(tracer_ ? tracer_->now() : 0) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach one numeric argument (e.g. the sweep index). `arg_name` must be
  /// a string literal.
  void arg(const char* arg_name, std::int64_t value) noexcept {
    arg_name_ = arg_name;
    arg_ = value;
  }

  ~Span() {
    if (tracer_ == nullptr) return;
    tracer_->record(name_, start_, tracer_->now() - start_, arg_name_, arg_);
  }

 private:
  Tracer* tracer_;
  const char* name_;
  const char* arg_name_ = nullptr;
  std::int64_t arg_ = 0;
  std::uint64_t start_;
};

}  // namespace proxion::obs
