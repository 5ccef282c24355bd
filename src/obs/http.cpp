#include "obs/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <string_view>

namespace proxion::obs {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;  // headers incl.; GETs are tiny

/// The whole request must arrive within this of its accept, and a send may
/// block for at most this long: a client that drips bytes or stops reading
/// holds the one serve thread no longer.
constexpr std::chrono::microseconds kRequestDeadline = std::chrono::seconds(2);

timeval to_timeval(std::chrono::microseconds d) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(d.count() / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(d.count() % 1'000'000);
  return tv;
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Internal Server Error";
  }
}

/// Sends the head and the body as one message of two iovecs, so the body
/// is never copied behind the head; a partial send resumes where it left.
void send_response(int fd, std::string_view head, std::string_view body) {
  iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                  {const_cast<char*>(body.data()), body.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a scraper that hung up mid-response must surface as an
    // error return, not a process-killing SIGPIPE.
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) return;
    auto sent = static_cast<std::size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
}

}  // namespace

HttpServer::HttpServer() = default;

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(const std::string& path, HttpHandler handler) {
  handlers_[path] = std::move(handler);
}

void HttpServer::handle_prefix(const std::string& prefix,
                               HttpPrefixHandler handler) {
  prefix_handlers_[prefix] = std::move(handler);
}

bool HttpServer::start(std::uint16_t port) {
  if (running_.load(std::memory_order_relaxed)) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  // Accepted sockets inherit both timeouts (Linux copies them on accept),
  // so a connection pays no setsockopt unless its request needs a second
  // recv. The receive timeout also bounds each accept() (see accept_loop).
  const timeval deadline = to_timeval(kRequestDeadline);
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof deadline);
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_SNDTIMEO, &deadline, sizeof deadline);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only, by design
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);  // resolves port 0 to the ephemeral choice
  }
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void HttpServer::stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  // shutdown() unblocks the accept() in the loop thread; close follows the
  // join so the fd number can't be recycled under a still-running accept.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpServer::accept_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      // EAGAIN: the listener's receive timeout, there for the accepted
      // sockets to inherit, also ends an idle accept every 2 s.
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      // Shutdown (or a fatal accept error): leave the loop; stop() flips
      // running_ before shutdown so the normal path reads false here.
      return;
    }
    serve_one(client, std::chrono::steady_clock::now() + kRequestDeadline);
    ::close(client);
  }
}

void HttpServer::serve_one(int client_fd,
                           std::chrono::steady_clock::time_point deadline) {
  char buf[kMaxRequestBytes];
  std::size_t len = 0;
  std::size_t end_of_head = std::string_view::npos;
  while (len < kMaxRequestBytes && end_of_head == std::string_view::npos) {
    if (len > 0) {
      // Only a request split over several recvs gets here: shrink the
      // inherited per-recv timeout to what is left of the whole deadline.
      const auto left = std::chrono::ceil<std::chrono::microseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) break;
      const timeval tv = to_timeval(left);
      ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }
    const ssize_t n = ::recv(client_fd, buf + len, kMaxRequestBytes - len, 0);
    if (n <= 0) break;
    // A terminator can straddle the previous read's last three bytes.
    const std::size_t from = len > 3 ? len - 3 : 0;
    len += static_cast<std::size_t>(n);
    end_of_head = std::string_view(buf, len).find("\r\n\r\n", from);
  }
  if (len == 0) return;  // nothing arrived: no one to answer
  const std::string_view request(buf, len);

  // "METHOD SP target SP version"
  const std::size_t line_end = request.find("\r\n");
  const std::string_view line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  HttpResponse resp;
  if (line_end == std::string_view::npos || sp1 == std::string_view::npos ||
      sp2 == sp1) {
    resp.status = 400;
    resp.body = "malformed request line\n";
  } else if (line.substr(0, sp1) != "GET") {
    resp.status = 405;
    resp.body = "only GET is served here\n";
  } else {
    std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    std::string_view query;
    const std::size_t q = target.find('?');
    if (q != std::string_view::npos) {
      query = target.substr(q + 1);
      target = target.substr(0, q);
    }
    const auto it = handlers_.find(target);
    if (it != handlers_.end()) {
      resp = it->second(std::string(query));
    } else {
      // Longest matching registered prefix wins; the map is sorted
      // ascending, so the last match seen is the longest.
      const HttpPrefixHandler* best = nullptr;
      std::size_t best_len = 0;
      for (const auto& [prefix, handler] : prefix_handlers_) {
        if (target.starts_with(prefix) && prefix.size() >= best_len) {
          best = &handler;
          best_len = prefix.size();
        }
      }
      if (best != nullptr) {
        resp = (*best)(std::string(target.substr(best_len)),
                       std::string(query));
      } else {
        resp.status = 404;
        resp.body = "no such endpoint; try /metrics /healthz /spans /v1/status\n";
      }
    }
  }
  char head[160];
  const int head_len = std::snprintf(
      head, sizeof head,
      "HTTP/1.1 %d %s\r\n"
      "Content-Type: %s\r\n"
      "Content-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      resp.status, status_text(resp.status), resp.content_type.c_str(),
      resp.body.size());
  // snprintf returns the untruncated length; an overlong content type is cut.
  const std::size_t head_bytes = std::min(
      static_cast<std::size_t>(std::max(head_len, 0)), sizeof head - 1);
  send_response(client_fd, std::string_view(head, head_bytes), resp.body);
  served_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace proxion::obs
