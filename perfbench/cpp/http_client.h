// Loopback HTTP load for the read workloads: a one-shot GET client matching
// obs::HttpServer's one-request-per-connection protocol, an open-loop
// generator (requests are due on a fixed schedule whether or not earlier
// ones finished; each is timed from when it was due, and the generator
// reports how late it started each one) and a single-thread closed loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// status 0 = refused, timed out or unparseable.
struct HttpReply {
  int status = 0;
  std::string body;
};

HttpReply http_get(std::uint16_t port, const std::string& target,
                   int timeout_ms = 2000);

/// One request of a read mix and what a correct answer looks like.
struct ReadRequest {
  std::string target;
  int expect_status = 200;
  /// Must appear in the body of a correct answer (empty = no check).
  std::string expect_substr;
};

/// Latency charged to a failed request: it misses any limit.
inline constexpr double kFailedLatencyMs = 1000.0;

struct LoadReport {
  double rate = 0.0;  // requested req/s; 0 for a closed loop
  double seconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // refused, timed out or unexpected status
  std::uint64_t wrong = 0;   // expected status, unexpected body
  std::vector<double> latency_ms;  // from due time (open) or send (closed)
  std::vector<double> late_ms;     // send start minus due time (open only)
  double client_cpu_s = 0.0;       // CPU time of the load threads

  double achieved_rps() const {
    return seconds > 0 ? static_cast<double>(attempted) / seconds : 0.0;
  }
};

struct OpenLoopConfig {
  double rate = 1000.0;  // req/s over all threads
  double seconds = 1.0;  // schedule length; ignored when `stop` is set
  unsigned threads = 1;
  /// When set, the schedule runs until it becomes true.
  const std::atomic<bool>* stop = nullptr;
  /// Position in the mix of request 0 (so runs can start mid-mix).
  std::size_t mix_offset = 0;
  /// Pin load thread k to CPU k, skipping the server's CPU.
  bool pin = true;
};

LoadReport run_open_loop(std::uint16_t port,
                         const std::vector<ReadRequest>& mix,
                         const OpenLoopConfig& config);

/// One client (pinned like the open loop's first load thread) sending its
/// next request as soon as the previous reply arrived.
LoadReport run_closed_loop(std::uint16_t port,
                           const std::vector<ReadRequest>& mix, double seconds);

}  // namespace perfbench
