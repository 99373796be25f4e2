#include "obs/prom_http.hpp"

#include <atomic>
#include <thread>

#include "sched/transport.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PHONOC_HAS_SOCKETS 1
#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define PHONOC_HAS_SOCKETS 0
#include "util/error.hpp"
#endif

namespace phonoc::obs {

#if PHONOC_HAS_SOCKETS

namespace {

/// Read until the end of the HTTP request head (`\r\n\r\n`) or the
/// peer stops sending. The request line/headers are not interpreted —
/// every request is a scrape — but the head must be consumed so the
/// peer's send never blocks against our response.
bool read_request_head(int fd) {
  std::string head;
  char buffer[4096];
  while (head.size() < (1u << 16)) {
    struct pollfd pfd {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 2000);
    if (ready <= 0) return false;
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    head.append(buffer, static_cast<std::size_t>(n));
    if (head.find("\r\n\r\n") != std::string::npos ||
        head.find("\n\n") != std::string::npos)
      return true;
  }
  return false;
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#if defined(MSG_NOSIGNAL)
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

struct PromHttpServer::Impl {
  TcpListener listener;
  Render render;
  std::atomic<bool> stop{false};
  std::thread thread;

  Impl(std::uint16_t port, Render render_fn)
      : listener(port), render(std::move(render_fn)) {}

  void run() {
    while (!stop.load(std::memory_order_relaxed)) {
      const int fd = listener.accept_fd_for(0.2);
      if (fd < 0) continue;
      if (read_request_head(fd)) {
        std::string body;
        try {
          body = render();
        } catch (const std::exception& e) {
          body = std::string("# render failed: ") + e.what() + "\n";
        }
        std::string response =
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
            "Content-Length: " +
            std::to_string(body.size()) +
            "\r\n"
            "Connection: close\r\n\r\n";
        response += body;
        write_all(fd, response);
      }
      ::close(fd);
    }
  }
};

PromHttpServer::PromHttpServer(std::uint16_t port, Render render)
    : impl_(std::make_unique<Impl>(port, std::move(render))) {
  impl_->thread = std::thread([impl = impl_.get()] { impl->run(); });
}

PromHttpServer::~PromHttpServer() {
  impl_->stop.store(true, std::memory_order_relaxed);
  impl_->thread.join();
}

std::uint16_t PromHttpServer::port() const noexcept {
  return impl_->listener.port();
}

#else  // !PHONOC_HAS_SOCKETS

struct PromHttpServer::Impl {};

PromHttpServer::PromHttpServer(std::uint16_t, Render) {
  throw ExecError("PromHttpServer requires a POSIX platform (sockets)");
}
PromHttpServer::~PromHttpServer() = default;
std::uint16_t PromHttpServer::port() const noexcept { return 0; }

#endif

}  // namespace phonoc::obs
