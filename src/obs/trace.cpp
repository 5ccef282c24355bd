#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

namespace proxion::obs {

namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

/// Thread-local pointer to this thread's ring in the tracer it last recorded
/// to. Keyed by a process-unique tracer id, never a pointer: a new tracer
/// allocated at a dead tracer's address must not inherit its rings.
struct TlsRingCache {
  std::uint64_t tracer_id = 0;
  void* ring = nullptr;
};
thread_local TlsRingCache t_ring_cache;

/// Per-thread coarse-clock cache: one real steady_clock read amortized over
/// kCoarseRefresh now() calls. Keyed by tracer id like the ring cache so a
/// fresh tracer never reuses a stale countdown.
struct TlsCoarseCache {
  std::uint64_t tracer_id = 0;
  std::uint64_t cached_ns = 0;
  std::uint32_t countdown = 0;
};
thread_local TlsCoarseCache t_coarse_cache;

// ---------------------------------------------------------------------------
// Span-name interning.
//
// The table is a leaked singleton (like Registry::global()): SpanRecord and
// drained exports hold `const char*` into it, and tracers may outlive any
// scoped table. Content-keyed so two literals with equal text (e.g. the same
// name in two translation units) intern to one id.
// ---------------------------------------------------------------------------

constexpr std::uint16_t kInternOverflow = 0xFFFF;  // table-full sentinel

struct InternTable {
  std::mutex mu;
  std::map<std::string, std::uint16_t> by_content;
  /// id -> stable C string. Entries are heap copies, never freed (the table
  /// is process-lifetime and bounded by the instrumentation surface).
  std::vector<const char*> by_id;
};

InternTable& intern_table() {
  static auto* table = [] {
    auto* t = new InternTable();
    t->by_id.push_back(nullptr);  // id 0 = "no name"
    return t;
  }();
  return *table;
}

std::uint16_t intern_slow(const char* name) {
  InternTable& t = intern_table();
  std::lock_guard<std::mutex> lk(t.mu);
  auto it = t.by_content.find(name);
  if (it != t.by_content.end()) return it->second;
  if (t.by_id.size() >= kInternOverflow) {
    // Saturated: collapse further names into one sentinel string rather than
    // recycle ids. 65k distinct span names means runaway dynamic naming —
    // the export stays well-formed and the overflow is visible by name.
    auto ov = t.by_content.find("<intern-overflow>");
    if (ov != t.by_content.end()) return ov->second;
    name = "<intern-overflow>";
  }
  const std::size_t len = std::strlen(name);
  char* copy = new char[len + 1];
  std::memcpy(copy, name, len + 1);
  const auto id = static_cast<std::uint16_t>(t.by_id.size());
  t.by_id.push_back(copy);
  t.by_content.emplace(copy, id);
  return id;
}

/// Direct-mapped TLS cache over the intern table, keyed by POINTER — the
/// common case is the same string literal passed repeatedly, so a pointer
/// compare resolves it without hashing the content.
struct TlsInternEntry {
  const char* ptr = nullptr;
  std::uint16_t id = 0;
};
constexpr std::size_t kTlsInternSlots = 64;  // power of two
thread_local TlsInternEntry t_intern_cache[kTlsInternSlots];

}  // namespace

std::uint16_t intern_name(const char* name) {
  if (name == nullptr) return 0;
  const auto slot =
      (reinterpret_cast<std::uintptr_t>(name) >> 3) & (kTlsInternSlots - 1);
  TlsInternEntry& e = t_intern_cache[slot];
  if (e.ptr == name) return e.id;
  const std::uint16_t id = intern_slow(name);
  e.ptr = name;
  e.id = id;
  return id;
}

const char* interned_name(std::uint16_t id) noexcept {
  InternTable& t = intern_table();
  std::lock_guard<std::mutex> lk(t.mu);
  if (id >= t.by_id.size()) return nullptr;
  return t.by_id[id];
}

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t Tracer::coarse_now_ns(std::uint64_t tracer_id) {
  TlsCoarseCache& c = t_coarse_cache;
  if (c.tracer_id != tracer_id || c.countdown == 0) {
    c.tracer_id = tracer_id;
    c.cached_ns = steady_now_ns();
    c.countdown = kCoarseRefresh;
  }
  --c.countdown;
  return c.cached_ns;
}

Tracer::Tracer(TraceClock clock, std::size_t ring_capacity)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      default_clock_(!clock),
      clock_(clock ? std::move(clock) : TraceClock(&steady_now_ns)) {}

Tracer::~Tracer() = default;

Tracer::Ring& Tracer::ring_for_this_thread() {
  if (t_ring_cache.tracer_id == id_) {
    return *static_cast<Ring*>(t_ring_cache.ring);
  }
  std::lock_guard<std::mutex> lk(mu_);
  auto ring = std::make_unique<Ring>();
  ring->tid = static_cast<std::uint32_t>(rings_.size());
  // Slots are atomics (non-movable): size the buffer once at registration
  // rather than growing lazily. ~32 B/slot, one ring per recording thread.
  // One SPARE slot beyond the retained capacity: record w lands in slot
  // w % (capacity+1), so the slot a writer is (or is about to be) filling is
  // never the slot of the oldest retained record w-capacity — a quiescent
  // drain keeps the full window instead of conservatively dropping its head.
  ring->buf = std::vector<Slot>(capacity_ + 1);
  rings_.push_back(std::move(ring));
  t_ring_cache.tracer_id = id_;
  t_ring_cache.ring = rings_.back().get();
  return *rings_.back();
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t dur_ns, const char* arg_name,
                    std::int64_t arg) {
  Ring& ring = ring_for_this_thread();
  const std::uint64_t w = ring.written.load(std::memory_order_relaxed);
  Slot& slot = ring.buf[w % (capacity_ + 1)];
  const std::uint64_t meta = (std::uint64_t{intern_name(name)} << 16) |
                             std::uint64_t{intern_name(arg_name)};
  slot.meta.store(meta, std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  // Release-publish: a reader that acquires `written` > w sees this slot's
  // stores. Readers treat slots the writer might currently be overwriting
  // (index within one lap of a later `written`) as torn and drop them.
  ring.written.store(w + 1, std::memory_order_release);
}

void Tracer::drain_ring(const Ring& ring, std::vector<SpanRecord>& out) const {
  const std::uint64_t nslots = capacity_ + 1;
  const std::uint64_t w1 = ring.written.load(std::memory_order_acquire);
  if (w1 == 0) return;
  const std::uint64_t begin = w1 > capacity_ ? w1 - capacity_ : 0;
  std::vector<SpanRecord> tmp;
  tmp.reserve(static_cast<std::size_t>(w1 - begin));
  std::vector<std::uint64_t> idx;
  idx.reserve(static_cast<std::size_t>(w1 - begin));
  for (std::uint64_t i = begin; i < w1; ++i) {
    const Slot& s = ring.buf[i % nslots];
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    SpanRecord rec;
    rec.name = interned_name(static_cast<std::uint16_t>(meta >> 16));
    rec.arg_name = interned_name(static_cast<std::uint16_t>(meta & 0xFFFF));
    rec.arg = s.arg.load(std::memory_order_relaxed);
    rec.start_ns = s.start_ns.load(std::memory_order_relaxed);
    rec.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
    rec.tid = ring.tid;
    tmp.push_back(rec);
    idx.push_back(i);
  }
  // Re-read `written`: record i's slot is reused by record i+nslots, so any
  // record whose reuser may have started during our copy (i + nslots <= w2,
  // counting the writer possibly mid-flight on record w2 itself... which
  // touches slot w2 % nslots = record w2-nslots's slot) is in doubt — the
  // loads above might have observed a half-written overwrite. Drop those;
  // keep the rest, which are release-published and untouched since. At
  // quiescence (w2 == w1) nothing is dropped, thanks to the spare slot.
  const std::uint64_t w2 = ring.written.load(std::memory_order_acquire);
  for (std::size_t k = 0; k < tmp.size(); ++k) {
    if (idx[k] + nslots > w2 && tmp[k].name != nullptr) {
      out.push_back(tmp[k]);
    }
  }
}

std::vector<SpanRecord> Tracer::spans() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& ring : rings_) drain_ring(*ring, out);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
              return a.tid < b.tid;
            });
  return out;
}

std::vector<SpanRecord> Tracer::recent_spans(std::size_t max_spans) const {
  std::vector<SpanRecord> all = spans();
  if (all.size() > max_spans) {
    all.erase(all.begin(),
              all.begin() + static_cast<std::ptrdiff_t>(all.size() - max_spans));
  }
  return all;
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->written.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    const std::uint64_t w = ring->written.load(std::memory_order_relaxed);
    if (w > capacity_) total += w - capacity_;
  }
  return total;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& ring : rings_) {
    for (Slot& s : ring->buf) {
      s.meta.store(0, std::memory_order_relaxed);
      s.arg.store(0, std::memory_order_relaxed);
      s.start_ns.store(0, std::memory_order_relaxed);
      s.dur_ns.store(0, std::memory_order_relaxed);
    }
    ring->written.store(0, std::memory_order_relaxed);
  }
}

namespace {

/// Span names are compile-time literals from our own call sites, but keep
/// the export robust if one ever carries a quote or backslash.
void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out += buf;
}

/// Nanoseconds as fixed-point microseconds (Chrome traces use us).
void append_us(std::string& out, std::uint64_t ns) {
  append_u64(out, ns / 1000);
  char buf[8];
  std::snprintf(buf, sizeof buf, ".%03u", static_cast<unsigned>(ns % 1000));
  out += buf;
}

std::string spans_to_ndjson(const std::vector<SpanRecord>& all) {
  std::string out;
  out.reserve(all.size() * 96);
  for (const SpanRecord& s : all) {
    out += "{\"name\":\"";
    append_escaped(out, s.name);
    out += "\",\"tid\":";
    append_u64(out, s.tid);
    out += ",\"ts_ns\":";
    append_u64(out, s.start_ns);
    out += ",\"dur_ns\":";
    append_u64(out, s.dur_ns);
    if (s.arg_name != nullptr) {
      out += ",\"";
      append_escaped(out, s.arg_name);
      out += "\":";
      append_i64(out, s.arg);
    }
    out += "}\n";
  }
  return out;
}

}  // namespace

std::string Tracer::chrome_trace_json() const {
  const std::vector<SpanRecord> all = spans();
  std::string out;
  out.reserve(64 + all.size() * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const SpanRecord& s : all) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, s.name);
    out += "\",\"cat\":\"proxion\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    append_u64(out, s.tid);
    out += ",\"ts\":";
    append_us(out, s.start_ns);
    out += ",\"dur\":";
    append_us(out, s.dur_ns);
    if (s.arg_name != nullptr) {
      out += ",\"args\":{\"";
      append_escaped(out, s.arg_name);
      out += "\":";
      append_i64(out, s.arg);
      out += "}";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::string Tracer::ndjson() const { return spans_to_ndjson(spans()); }

std::string Tracer::ndjson_recent(std::size_t max_spans) const {
  return spans_to_ndjson(recent_spans(max_spans));
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return false;
  file << chrome_trace_json();
  return static_cast<bool>(file);
}

bool Tracer::write_ndjson(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return false;
  file << ndjson();
  return static_cast<bool>(file);
}

}  // namespace proxion::obs
