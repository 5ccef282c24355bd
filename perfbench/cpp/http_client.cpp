#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "spans.h"
#include "stats.h"

namespace perfbench {

namespace {

/// Sleeps until shortly before `deadline_ns`, then spins: a sleeping
/// thread's wake-up delay would otherwise show up as generator lateness.
void sleep_then_spin(std::uint64_t deadline_ns) {
  constexpr std::uint64_t kSpinNs = 50'000;
  if (deadline_ns > kSpinNs) sleep_until(deadline_ns - kSpinNs);
  while (now_ns() < deadline_ns) {
  }
}

/// Classifies a reply against what the mix expects.
void tally(const ReadRequest& req, const HttpReply& reply, LoadReport& out,
           bool* failed) {
  *failed = reply.status != req.expect_status;
  if (*failed) {
    ++out.failed;
  } else if (!req.expect_substr.empty() &&
             reply.body.find(req.expect_substr) == std::string::npos) {
    ++out.wrong;
  }
}

}  // namespace

HttpReply http_get(std::uint16_t port, const std::string& target,
                   int timeout_ms) {
  Span span("obs", "http_get");
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);  // bounds connect
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return reply;
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    sent += static_cast<std::size_t>(n);
  }
  // Abortive close once the reply is in: the server has already closed its
  // end, and an RST leaves no TIME_WAIT socket behind, so connection churn
  // does not accumulate kernel state across requests and runs.
  const linger abort_on_close{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close, sizeof abort_on_close);
  std::string raw;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) break;  // server closes after the response
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return reply;  // timeout or reset: status stays 0
    }
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.1 200 OK\r\n...\r\n\r\nbody"
  if (raw.size() < 12 || raw.compare(0, 5, "HTTP/") != 0) return reply;
  const std::size_t sp = raw.find(' ');
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (sp == std::string::npos || head_end == std::string::npos) return reply;
  reply.status = std::atoi(raw.c_str() + sp + 1);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

LoadReport run_open_loop(std::uint16_t port,
                         const std::vector<ReadRequest>& mix,
                         const OpenLoopConfig& config) {
  const unsigned threads = std::max(1U, config.threads);
  const double period_ns = 1e9 / config.rate;
  const std::uint64_t t0 = now_ns() + 1'000'000;  // 1 ms to spin up
  const std::uint64_t end =
      config.stop != nullptr
          ? UINT64_MAX
          : t0 + static_cast<std::uint64_t>(config.seconds * 1e9);
  std::vector<LoadReport> parts(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned k = 0; k < threads; ++k) {
    workers.emplace_back([&, k] {
      if (config.pin && online_cpus() > 1) {
        pin_thread_to_cpu(k % server_cpu());
      }
      LoadReport& part = parts[k];
      const double cpu0 = thread_cpu_s();
      for (std::uint64_t i = k;; i += threads) {
        const std::uint64_t due =
            t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
        if (due >= end) break;
        if (config.stop != nullptr &&
            config.stop->load(std::memory_order_relaxed)) {
          break;
        }
        sleep_then_spin(due);
        const std::uint64_t start = now_ns();
        const ReadRequest& req = mix[(i + config.mix_offset) % mix.size()];
        const HttpReply reply = http_get(port, req.target);
        const std::uint64_t done = now_ns();
        ++part.attempted;
        bool failed = false;
        tally(req, reply, part, &failed);
        const double ms = static_cast<double>(done - due) / 1e6;
        part.latency_ms.push_back(failed ? std::max(ms, kFailedLatencyMs) : ms);
        part.late_ms.push_back(static_cast<double>(start - due) / 1e6);
      }
      part.client_cpu_s = thread_cpu_s() - cpu0;
    });
  }
  for (std::thread& w : workers) w.join();
  LoadReport out;
  out.rate = config.rate;
  out.seconds = static_cast<double>(std::min(now_ns(), end) - t0) / 1e9;
  for (LoadReport& p : parts) {
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.wrong += p.wrong;
    out.client_cpu_s += p.client_cpu_s;
    out.latency_ms.insert(out.latency_ms.end(), p.latency_ms.begin(),
                          p.latency_ms.end());
    out.late_ms.insert(out.late_ms.end(), p.late_ms.begin(), p.late_ms.end());
  }
  return out;
}

LoadReport run_closed_loop(std::uint16_t port,
                           const std::vector<ReadRequest>& mix, double seconds) {
  LoadReport out;
  std::thread client([&] {
    if (online_cpus() > 1) pin_thread_to_cpu(0);
    const double cpu0 = thread_cpu_s();
    const std::uint64_t t0 = now_ns();
    const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t now = t0;
    for (std::size_t i = 0; now < end; ++i) {
      const ReadRequest& req = mix[i % mix.size()];
      const HttpReply reply = http_get(port, req.target);
      const std::uint64_t done = now_ns();
      ++out.attempted;
      bool failed = false;
      tally(req, reply, out, &failed);
      const double ms = static_cast<double>(done - now) / 1e6;
      out.latency_ms.push_back(failed ? std::max(ms, kFailedLatencyMs) : ms);
      now = done;
    }
    out.seconds = static_cast<double>(now - t0) / 1e9;
    out.client_cpu_s = thread_cpu_s() - cpu0;
  });
  client.join();
  return out;
}

}  // namespace perfbench
