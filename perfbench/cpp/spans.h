// The benchmark's own span recorder. Spans are recorded from benchmark code
// only — around each call it makes into a module and inside its decorators —
// so the program under test is unchanged. Off (the end-to-end runs), a Span
// costs one relaxed load. On (the traced runs), each thread keeps its spans
// in memory: a running per-(layer, name) aggregate of every span, plus raw
// spans up to a cap for the Chrome trace written once when the run ends.
//
// Self time is a span's duration minus the durations of its direct children
// on the same thread. A layer's busy time counts only spans with no
// enclosing span of the same layer, so nested spans are not counted twice.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::uint64_t now_ns();
/// Sleeps until now_ns() reaches `deadline_ns` (absolute, CLOCK_MONOTONIC).
void sleep_until(std::uint64_t deadline_ns);

/// Turns recording on or off for spans opened from now on.
void set_tracing(bool on);
bool tracing();

class Span {
 public:
  /// `layer` and `name` must be string literals (they are stored by
  /// pointer).
  Span(const char* layer, const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

struct LayerTotals {
  std::uint64_t count = 0;
  double busy_ms = 0.0;
  double self_ms = 0.0;
};

/// Per-layer totals over every recorded span. Call only while no thread is
/// recording (after the workload's threads have stopped).
std::map<std::string, LayerTotals> layer_totals();

/// Writes the retained raw spans as Chrome trace_event JSON. Same
/// quiescence rule as layer_totals(). Returns false when the file cannot be
/// written.
bool write_chrome_trace(const std::string& path, std::uint64_t* written,
                        std::uint64_t* dropped);

}  // namespace perfbench
