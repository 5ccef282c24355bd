// perfbench: runs one benchmark workload and prints its result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <contracts>] [--work-dir <dir>]
//             [--trace-file <path>] [--source-id <id>]
//
// Standard output: a human-readable report, one `perfbench-detail {...}`
// JSON line (run metadata plus the workload's end-to-end figures under
// their own names, with sample counts), and as the last line the result
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// Exit code 0 on a completed run (the result says whether it was correct),
// 2 on bad arguments or a run that could not be carried out.
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "stats.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <sweep_cold|sweep_remote|"
               "follow_mixed|serve_reads> --seed N --seconds S --trace 0|1 "
               "[--scale N] [--work-dir DIR] [--trace-file PATH] "
               "[--source-id ID]\n");
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string source_id = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (arg == "--seed" && parse_u64(v, &n)) {
      opt.seed = n;
      have_seed = true;
    } else if (arg == "--seconds" && parse_u64(v, &n) && n >= 1 && n <= 600) {
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace" && parse_u64(v, &n) && n <= 1) {
      opt.trace = n == 1;
      have_trace = true;
    } else if (arg == "--scale" && parse_u64(v, &n) && n >= 50 &&
               n <= 1'000'000) {
      opt.scale = static_cast<std::uint32_t>(n);
    } else if (arg == "--work-dir") {
      opt.work_dir = v;
    } else if (arg == "--trace-file") {
      opt.trace_path = v;
    } else if (arg == "--source-id") {
      source_id = v;
    } else {
      usage();
      return 2;
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == opt.workload;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace || !known) {
    usage();
    return 2;
  }
  // Precise sleeps for the modelled archive round trip and the open-loop
  // schedule; threads created from here on inherit the slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::printf("perfbench %s seed=%llu seconds=%.0f trace=%d scale=%u\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.scale);
  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  for (const perfbench::Metric& m : result.detail.items()) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("error_rate %.6f (%llu of %llu ops failed)\n",
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 0.0,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  std::string checks;
  for (const std::string& c : result.checks) {
    checks += (checks.empty() ? "" : ", ") + c;
  }
  std::printf("checks run: %s\n", checks.c_str());
  for (const std::string& f : result.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  for (const perfbench::Metric& m : result.metrics.items()) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  using perfbench::json_escape;
  std::printf(
      "perfbench-detail {\"meta\": {\"workload\": \"%s\", \"source\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
      "\"scale\": %u, \"seed\": %llu, \"seconds\": %.0f, \"setups\": %d, "
      "\"trace\": %d}, \"error_rate\": %s, \"checks_failed\": %zu, "
      "\"figures\": %s}\n",
      json_escape(opt.workload).c_str(), json_escape(source_id).c_str(),
      json_escape(PERFBENCH_BUILD_TYPE).c_str(),
      json_escape(PERFBENCH_COMPILER).c_str(), perfbench::online_cpus(),
      opt.scale, static_cast<unsigned long long>(opt.seed), opt.seconds,
      perfbench::kSetupsPerRun, opt.trace ? 1 : 0,
      perfbench::json_number(result.attempted > 0
                                 ? static_cast<double>(result.failed) /
                                       static_cast<double>(result.attempted)
                                 : 0.0)
          .c_str(),
      result.failures.size(), result.detail.to_json().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(
                  result.attempted > 0 ? result.attempted : 1),
              static_cast<unsigned long long>(result.failed),
              result.metrics.to_json().c_str());
  return 0;
}
