// The four benchmark workloads over the library stack that
// `landscape_survey --checkpoint` and `landscape_survey --follow --serve`
// assemble (see README.md for why each exists and what it measures):
//
//   sweep_cold    repeated cold durable sweeps, in-process archive
//   sweep_remote  the same sweeps behind a modelled remote archive node
//   follow_mixed  closed-loop block production against a following service
//   serve_reads   open-loop HTTP reads against an idle seeded service
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Requested population size (the generator lands slightly above it).
  std::uint32_t scale = 12'000;
  /// Journals go here; it must exist.
  std::string work_dir = ".";
  /// Chrome trace output of a traced run; empty = not written.
  std::string trace_path;
};

struct RunResult {
  /// Correctness-check failures; empty = correct.
  std::vector<std::string> failures;
  /// Names of the correctness checks the run carried out.
  std::vector<std::string> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The end-to-end metrics (untraced run) or per-layer metrics (traced).
  MetricSet metrics;
  /// Workload-specific end-to-end figures under their own names, sample
  /// counts and run metadata.
  MetricSet detail;
  /// Human-readable lines printed ahead of the result.
  std::vector<std::string> report;

  bool correct() const { return failures.empty(); }
};

/// Cold set-ups per run; setup_s is their median.
inline constexpr int kSetupsPerRun = 7;

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown workload name.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
