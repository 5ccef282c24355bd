// Minimal dependency-free HTTP/1.1 server for the introspection plane. It
// serves exactly what a scraper or a human with curl needs — GET on a small
// set of registered paths, Connection: close, no keep-alive, no TLS, no
// chunking — and deliberately nothing more: the attack/bug surface of a real
// HTTP stack has no place inside an analysis pipeline. Binds 127.0.0.1 only;
// exposing metrics beyond the host is a reverse proxy's job.
//
// Threading: one accept thread, requests handled inline on it (scrapes are
// serial and cheap; Prometheus scrapes one target at a time). Handlers run
// on that thread and must be thread-safe against the pipeline (ours render
// from racy-by-design snapshots, which are). Because that thread is the only
// one, a client may hold it for at most 2 s to deliver its whole request
// (however it drips the bytes) and at most 2 s per send of the response;
// a request line that never arrives whole is answered 400.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

namespace proxion::obs {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Handler for one registered path; receives the raw query string (no
/// parsing — current endpoints take no parameters).
using HttpHandler = std::function<HttpResponse(const std::string& query)>;

/// Handler for a registered path prefix (the /v1/contract/<addr> family):
/// receives the target's remainder after the prefix plus the raw query
/// string. The handler owns all validation of `rest`.
using HttpPrefixHandler =
    std::function<HttpResponse(const std::string& rest,
                               const std::string& query)>;

class HttpServer {
 public:
  HttpServer();
  ~HttpServer();  // stops and joins

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Register before start(); exact path match (no prefixes).
  void handle(const std::string& path, HttpHandler handler);

  /// Register before start(); matches any target starting with `prefix`
  /// (longest registered prefix wins). Exact-path registrations take
  /// priority over prefix matches.
  void handle_prefix(const std::string& prefix, HttpPrefixHandler handler);

  /// Bind 127.0.0.1:`port` (0 = ephemeral) and launch the accept thread.
  /// Returns false (with no thread started) when the bind/listen fails.
  bool start(std::uint16_t port);
  void stop();
  bool running() const noexcept {
    return running_.load(std::memory_order_relaxed);
  }
  /// The bound port (resolves ephemeral requests); 0 before start().
  std::uint16_t port() const noexcept { return port_; }

  std::uint64_t requests_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop();
  void serve_one(int client_fd, std::chrono::steady_clock::time_point deadline);

  // std::less<> looks targets up as string_views, without a copy.
  std::map<std::string, HttpHandler, std::less<>> handlers_;
  std::map<std::string, HttpPrefixHandler, std::less<>> prefix_handlers_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> served_{0};
  std::thread thread_;
};

}  // namespace proxion::obs
