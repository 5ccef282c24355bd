// Small measurement helpers: order statistics over samples, process
// resource usage, and the ordered metric/metadata records a run prints.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Process peak resident set size in MiB (getrusage ru_maxrss).
double peak_rss_mb();
/// Process CPU time (user + system) in seconds, all threads.
double process_cpu_s();
/// CPU time of the calling thread in seconds.
double thread_cpu_s();
/// Online CPUs.
unsigned online_cpus();
/// Thread placement for the HTTP workloads: the calling thread runs only on
/// `cpu` (modulo the online count), or again on every CPU. Threads created
/// by a pinned thread inherit its placement.
void pin_thread_to_cpu(unsigned cpu);
void unpin_thread();
/// The CPU the HTTP server's accept thread gets; load threads use the others.
inline unsigned server_cpu() { return online_cpus() - 1; }

/// One reported value with its unit, in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }
  /// Value of `name`, or `fallback` when absent.
  double get(const std::string& name, double fallback = 0.0) const;
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string to_json() const;

 private:
  std::vector<Metric> items_;
};

/// Minimal JSON string escaping.
std::string json_escape(const std::string& s);
/// A finite double with all its digits ("%.17g"); non-finite prints 0.
std::string json_number(double v);

}  // namespace perfbench
