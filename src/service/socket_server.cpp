#include "service/socket_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"

namespace mbrc::service {

SocketServer::SocketServer(Daemon& daemon, SocketServerOptions options)
    : daemon_(daemon), options_(std::move(options)) {}

SocketServer::~SocketServer() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.path.c_str());
  }
}

bool SocketServer::start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.path.empty() ||
      options_.path.size() >= sizeof(addr.sun_path)) {
    error_ = "socket path empty or too long: " + options_.path;
    return false;
  }
  std::memcpy(addr.sun_path, options_.path.c_str(), options_.path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(options_.path.c_str());  // stale socket from a previous run
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd_, options_.backlog) < 0) {
    error_ = std::string("bind/listen ") + options_.path + ": " +
             std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  return true;
}

std::size_t SocketServer::run() {
  // Idle-timeout deadline: liveness only -- it decides when the server
  // stops waiting for clients, never any response content.
  // mbrc-lint: allow(R3, idle-timeout deadline; liveness only, no flow result depends on it)
  using clock = std::chrono::steady_clock;
  clock::time_point idle_since = clock::now();

  std::size_t served = 0;
  std::vector<std::thread> connections;
  while (!daemon_.shutdown_requested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, options_.poll_interval_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      error_ = std::string("poll: ") + std::strerror(errno);
      break;
    }
    if (ready == 0) {
      if (options_.idle_timeout_seconds > 0) {
        // mbrc-lint: allow(R3, idle-timeout check; stops the accept loop, responses are unaffected)
        const double idle = std::chrono::duration<double>(clock::now() -
                                                          idle_since)
                                .count();
        if (idle >= options_.idle_timeout_seconds) break;
      }
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    ++served;
    obs::flight::record(obs::flight::EventKind::kConnection, "accept", fd);
    // mbrc-lint: allow(R3, resets the idle deadline on activity; liveness only)
    idle_since = clock::now();
    connections.emplace_back([this, fd] { serve_connection(fd); });
  }
  for (std::thread& t : connections) t.join();
  daemon_.drain();
  // Idle-timeout teardown flushes a live trace the same way shutdown does,
  // so a traced run that ends by the server going idle keeps its tail.
  daemon_.finish_trace();
  return served;
}

void SocketServer::serve_connection(int fd) {
  // Teardown order on every exit path, exceptional unwind included:
  // destructors run in reverse, so the drain guard (declared second)
  // finishes this client's in-flight requests -- whose sinks capture fd
  // and write_mutex -- before the closer releases the socket.
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};
  std::mutex write_mutex;
  DrainGuard drain_guard(daemon_);
  const auto sink = [fd, &write_mutex](std::string response) {
    response += '\n';
    std::lock_guard<std::mutex> lock(write_mutex);
    std::size_t off = 0;
    while (off < response.size()) {
      const ssize_t n =
          ::send(fd, response.data() + off, response.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;  // peer went away; drop the rest
      off += static_cast<std::size_t>(n);
    }
  };

  // `pending` never holds more than kMaxRequestLineBytes plus one recv
  // chunk: an oversized line is answered with an error and the connection
  // closed, which also frees this thread from a client that never sends
  // a newline.
  std::string pending;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    const std::size_t scanned = pending.size();  // holds no '\n'
    pending.append(buffer, static_cast<std::size_t>(n));
    std::size_t start = 0;
    bool too_long = false;
    for (;;) {
      const std::size_t nl = pending.find('\n', std::max(start, scanned));
      if (nl == std::string::npos) break;
      if (nl - start > kMaxRequestLineBytes) {
        too_long = true;
        break;
      }
      std::string line = pending.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty()) daemon_.handle(std::move(line), sink);
      if (daemon_.shutdown_requested()) break;
    }
    if (daemon_.shutdown_requested()) break;
    pending.erase(0, start);
    if (too_long || pending.size() > kMaxRequestLineBytes) {
      daemon_.reject_oversized_line(sink);
      break;
    }
  }
}

}  // namespace mbrc::service
