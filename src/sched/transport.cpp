#include "sched/transport.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>
#include <vector>

#include "exec/serialize.hpp"
#include "exec/thread_pool.hpp"
#include "sched/worker.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PHONOC_HAS_SOCKETS 1
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <mutex>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#else
#define PHONOC_HAS_SOCKETS 0
#endif

namespace phonoc {

#if PHONOC_HAS_SOCKETS

namespace {

#if defined(MSG_NOSIGNAL)
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

#if defined(SOCK_CLOEXEC)
constexpr int kSockCloexec = SOCK_CLOEXEC;  // atomic: no fork slips in
#else
constexpr int kSockCloexec = 0;
#endif

/// Close-on-exec where socket calls cannot set it at creation: a
/// descriptor leaked into a spawned worker keeps its peer from EOF.
int cloexec(int fd) {
  if (fd >= 0 && kSockCloexec == 0) ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  return fd;
}

/// A dead peer must surface as Closed, never as SIGPIPE.
void disarm_sigpipe(int fd) {
#if defined(SO_NOSIGPIPE)
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);
#else
  (void)fd;
#endif
}

/// poll(2) timeout for `seconds`, rounded up to whole milliseconds and
/// clamped to int: a timeout of weeks waits INT_MAX ms and loops again
/// instead of overflowing the conversion.
int poll_timeout_ms(double seconds) {
  return static_cast<int>(std::min(
      seconds * 1e3 + 1.0, double(std::numeric_limits<int>::max())));
}

/// Disable Nagle on a TCP socket: every frame is a complete message, and
/// a small one must not wait behind the peer's delayed ACK.
void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

class FdConnection : public Connection {
 public:
  explicit FdConnection(int fd) : fd_(fd) { disarm_sigpipe(fd_); }
  ~FdConnection() override { close(); }

  bool send(const std::string& payload) override {
    if (fd_ < 0) return false;
    const std::string frame = encode_frame(payload);
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n =
          ::send(fd_, frame.data() + off, frame.size() - off, kSendFlags);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;  // EPIPE, ECONNRESET and friends: the peer died
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  RecvResult recv(double timeout_seconds) override {
    Timer timer;
    for (;;) {
      if (fd_ < 0) return {RecvStatus::Closed, {}};
      if (auto payload = decoder_.next())
        return {RecvStatus::Ok, std::move(*payload)};
      int poll_ms = -1;  // wait forever
      if (timeout_seconds > 0.0) {
        const double remaining = timeout_seconds - timer.elapsed_seconds();
        if (remaining <= 0.0) return {RecvStatus::Timeout, {}};
        poll_ms = poll_timeout_ms(remaining);
      }
      struct pollfd pfd {fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, poll_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return {RecvStatus::Closed, {}};
      }
      if (ready == 0) continue;  // the remaining-time check decides
      char buffer[1 << 16];
      const ssize_t n = ::read(fd_, buffer, sizeof buffer);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return {RecvStatus::Closed, {}};
      }
      if (n == 0) return {RecvStatus::Closed, {}};  // orderly shutdown
      decoder_.feed({buffer, static_cast<std::size_t>(n)});
    }
  }

  void close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_;
  FrameDecoder decoder_;
};

struct ParsedEndpoint {
  std::string host;
  std::string port;
};

ParsedEndpoint parse_endpoint(const std::string& endpoint) {
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size())
    throw ExecError("TcpTransport: endpoint '" + endpoint +
                    "' is not host:port");
  return {endpoint.substr(0, colon), endpoint.substr(colon + 1)};
}

int dial_tcp(const std::string& endpoint, double timeout_seconds) {
  const auto parsed = parse_endpoint(endpoint);
  struct addrinfo hints {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* info = nullptr;
  const int rc =
      ::getaddrinfo(parsed.host.c_str(), parsed.port.c_str(), &hints, &info);
  if (rc != 0)
    throw ExecError("TcpTransport: cannot resolve '" + endpoint +
                    "': " + ::gai_strerror(rc));

  std::string last_error = "no addresses";
  for (auto* entry = info; entry != nullptr; entry = entry->ai_next) {
    const int fd = cloexec(::socket(entry->ai_family,
                                    entry->ai_socktype | kSockCloexec,
                                    entry->ai_protocol));
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    // Non-blocking connect so a black-holed host honours the timeout.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    if (::connect(fd, entry->ai_addr, entry->ai_addrlen) != 0 &&
        errno != EINPROGRESS) {
      last_error = std::strerror(errno);
      ::close(fd);
      continue;
    }
    struct pollfd pfd {fd, POLLOUT, 0};
    const int poll_ms =
        timeout_seconds > 0.0 ? poll_timeout_ms(timeout_seconds) : -1;
    const int ready = ::poll(&pfd, 1, poll_ms);
    int so_error = 0;
    socklen_t len = sizeof so_error;
    if (ready <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      last_error = ready == 0 ? "connect timed out"
                              : std::strerror(so_error ? so_error : errno);
      ::close(fd);
      continue;
    }
    ::fcntl(fd, F_SETFL, flags);  // back to blocking
    set_nodelay(fd);
    ::freeaddrinfo(info);
    return fd;
  }
  ::freeaddrinfo(info);
  throw ExecError("TcpTransport: cannot connect to '" + endpoint +
                  "': " + last_error);
}

/// "exited with status N" or "killed by signal N (name)".
std::string describe_exit(int status) {
  if (WIFEXITED(status))
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  return "killed by signal " + std::to_string(WTERMSIG(status)) + " (" +
         ::strsignal(WTERMSIG(status)) + ")";
}

/// A spawned worker process behind its socketpair end. Closing reaps
/// the child: a live worker reads EOF and exits within the grace period,
/// one still running after it (mid-cell, wedged) is killed.
class SpawnConnection final : public FdConnection {
 public:
  SpawnConnection(int fd, pid_t pid) : FdConnection(fd), pid_(pid) {}
  ~SpawnConnection() override { close(); }
  SpawnConnection(const SpawnConnection&) = delete;
  SpawnConnection& operator=(const SpawnConnection&) = delete;

  void close() override {
    FdConnection::close();
    if (pid_ < 0) return;
    int status = 0;
    pid_t reaped = reap(WNOHANG, status);
    for (int ms = 0; reaped == 0 && ms < 100; ++ms) {  // the grace period
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      reaped = reap(WNOHANG, status);
    }
    if (reaped == 0) {
      ::kill(pid_, SIGKILL);
      reaped = reap(0, status);
    }
    if (reaped == pid_) exit_status_ = describe_exit(status);
    pid_ = -1;
  }

  std::string exit_status() const override { return exit_status_; }

 private:
  pid_t reap(int flags, int& status) const {
    pid_t reaped;
    while ((reaped = ::waitpid(pid_, &status, flags)) < 0 && errno == EINTR) {
    }
    return reaped;
  }

  pid_t pid_;
  std::string exit_status_;
};

/// fork/exec `PATH --stdio --threads=1` with the child's end of a
/// socketpair as its fd 0.
std::unique_ptr<Connection> spawn_worker(const std::string& endpoint) {
  check_spawn_endpoint(endpoint);
  const std::string path = endpoint.substr(kSpawnPrefix.size());
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | kSockCloexec, 0, fds) != 0)
    throw ExecError(std::string("spawn: socketpair failed: ") +
                    std::strerror(errno));
  cloexec(fds[0]);
  cloexec(fds[1]);
  // Built before fork: the child may only make async-signal-safe calls.
  char* const argv[] = {const_cast<char*>(path.c_str()),
                        const_cast<char*>("--stdio"),
                        const_cast<char*>("--threads=1"), nullptr};
  const pid_t pid = ::fork();
  if (pid < 0) {
    const std::string detail = std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    throw ExecError("spawn: fork failed: " + detail);
  }
  if (pid == 0) {
    // dup2 clears close-on-exec on the copy; all else closes at exec.
    if (fds[1] == STDIN_FILENO)
      ::fcntl(STDIN_FILENO, F_SETFD, 0);
    else
      ::dup2(fds[1], STDIN_FILENO);
    ::execvp(argv[0], argv);
    _exit(127);  // the conventional "could not exec" status
  }
  ::close(fds[1]);
  return std::make_unique<SpawnConnection>(fds[0], pid);
}

}  // namespace

void check_spawn_endpoint(const std::string& endpoint) {
  if (!is_spawn_endpoint(endpoint)) return;
  const std::string path = endpoint.substr(kSpawnPrefix.size());
  if (path.empty() ||
      (path.find('/') != std::string::npos &&
       ::access(path.c_str(), X_OK) != 0))
    throw ExecError("spawn endpoint '" + endpoint +
                    "': the worker binary is not executable");
}

std::unique_ptr<Connection> make_fd_connection(int fd) {
  return std::make_unique<FdConnection>(fd);
}

TcpTransport::TcpTransport(double connect_timeout_seconds)
    : connect_timeout_seconds_(connect_timeout_seconds) {}

std::unique_ptr<Connection> TcpTransport::connect(
    const std::string& endpoint) {
  return make_fd_connection(dial_tcp(endpoint, connect_timeout_seconds_));
}

// --- loopback ---------------------------------------------------------------

struct LoopbackTransport::Impl {
  struct Worker {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> finished;
  };
  std::mutex mutex;
  std::vector<Worker> servers;
  LoopbackTransport::Server serve;
};

LoopbackTransport::LoopbackTransport()
    : LoopbackTransport(
          [](Connection& conn) { return serve_connection(conn, {}); }) {}

LoopbackTransport::LoopbackTransport(Server server)
    : impl_(std::make_unique<Impl>()) {
  impl_->serve = std::move(server);
}

LoopbackTransport::~LoopbackTransport() {
  // Connections are expected to be closed by now; joining here makes a
  // leaked connection a hang at a named place instead of a use-after-
  // free inside a detached thread.
  for (auto& server : impl_->servers) server.thread.join();
}

std::unique_ptr<Connection> LoopbackTransport::connect(
    const std::string& endpoint) {
  (void)endpoint;  // every loopback endpoint is this process
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | kSockCloexec, 0, fds) != 0)
    throw ExecError(std::string("LoopbackTransport: socketpair failed: ") +
                    std::strerror(errno));
  cloexec(fds[0]);
  cloexec(fds[1]);
  auto server_side = make_fd_connection(fds[0]);
  auto finished = std::make_shared<std::atomic<bool>>(false);
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    // Reap servers whose connection already ended, so a long-lived
    // transport reused across many sweeps doesn't accumulate one
    // exited-but-unjoined thread per connection ever made.
    auto& servers = impl_->servers;
    for (auto it = servers.begin(); it != servers.end();) {
      if (it->finished->load()) {
        it->thread.join();
        it = servers.erase(it);
      } else {
        ++it;
      }
    }
    servers.push_back(Impl::Worker{
        std::thread([conn = std::move(server_side), finished,
                     serve = impl_->serve]() mutable {
          (void)serve(*conn);
          conn->close();
          finished->store(true);
        }),
        finished});
  }
  return make_fd_connection(fds[1]);
}

// --- TcpListener ------------------------------------------------------------

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = cloexec(::socket(AF_INET, SOCK_STREAM | kSockCloexec, 0));
  if (fd_ < 0)
    throw ExecError(std::string("TcpListener: socket failed: ") +
                    std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw ExecError("TcpListener: cannot bind port " + std::to_string(port) +
                    ": " + detail);
  }
  if (::listen(fd_, 16) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw ExecError(std::string("TcpListener: listen failed: ") + detail);
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<Connection> TcpListener::accept_for(double timeout_seconds) {
  const int fd = accept_fd_for(timeout_seconds);
  if (fd < 0) return nullptr;
  return make_fd_connection(fd);
}

int TcpListener::accept_fd_for(double timeout_seconds) {
  Timer timer;
  for (;;) {
    int poll_ms = -1;
    double remaining = 0.0;
    if (timeout_seconds > 0.0) {
      remaining = timeout_seconds - timer.elapsed_seconds();
      if (remaining <= 0.0) return -1;
      poll_ms = poll_timeout_ms(remaining);
    }
    struct pollfd pfd {fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, poll_ms);
    if (ready == 0) continue;  // the remaining-time check decides
    if (ready > 0) {
#if defined(SOCK_CLOEXEC)
      const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
#else
      const int fd = cloexec(::accept(fd_, nullptr, nullptr));
#endif
      if (fd >= 0) {
        set_nodelay(fd);
        return fd;
      }
    }
    // Only a broken listener ends the wait. An interrupted call or a
    // dial that vanished between poll and accept retries at once. Any
    // other failure is transient: out of descriptors or memory (EMFILE,
    // ENFILE, ENOBUFS, ENOMEM), EPROTO, EPERM, and the pending network
    // errors accept(2) says to retry. Back off briefly, since a dial
    // left queued would make poll spin.
    if (errno == EBADF || errno == EINVAL || errno == ENOTSOCK) return -1;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED)
      continue;
    constexpr double kBackoffSeconds = 0.01;
    std::this_thread::sleep_for(std::chrono::duration<double>(
        timeout_seconds > 0.0 ? std::min(kBackoffSeconds, remaining)
                              : kBackoffSeconds));
  }
}

#else  // !PHONOC_HAS_SOCKETS

namespace {
[[noreturn]] void no_sockets() {
  throw ExecError(
      "the sched transports require a POSIX platform (sockets/socketpair); "
      "run the cells in process with BatchEngine here");
}
std::unique_ptr<Connection> spawn_worker(const std::string&) { no_sockets(); }
}  // namespace

std::unique_ptr<Connection> make_fd_connection(int) { no_sockets(); }
void check_spawn_endpoint(const std::string& endpoint) {
  if (is_spawn_endpoint(endpoint)) no_sockets();
}
TcpTransport::TcpTransport(double connect_timeout_seconds)
    : connect_timeout_seconds_(connect_timeout_seconds) {}
std::unique_ptr<Connection> TcpTransport::connect(const std::string&) {
  no_sockets();
}
struct LoopbackTransport::Impl {};
LoopbackTransport::LoopbackTransport() = default;
LoopbackTransport::LoopbackTransport(Server) : LoopbackTransport() {}
LoopbackTransport::~LoopbackTransport() = default;
std::unique_ptr<Connection> LoopbackTransport::connect(const std::string&) {
  no_sockets();
}
TcpListener::TcpListener(std::uint16_t) { no_sockets(); }
TcpListener::~TcpListener() = default;
std::unique_ptr<Connection> TcpListener::accept_for(double) { no_sockets(); }
int TcpListener::accept_fd_for(double) { no_sockets(); }

#endif

// --- endpoint dispatch ------------------------------------------------------

std::vector<std::string> local_worker_endpoints(const std::string& argv0,
                                                std::size_t count) {
  const auto slash = argv0.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "" : argv0.substr(0, slash + 1);
  return std::vector<std::string>(
      count > 0 ? count : ThreadPool::default_worker_count(),
      std::string(kSpawnPrefix) + dir + "phonoc_workerd");
}

std::vector<std::string> fleet_from_cli(const CliOptions& cli,
                                        const std::string& argv0,
                                        std::size_t workers) {
  const auto backend = cli.get_or("backend", "thread");
  if (backend == "thread") return {};
  if (backend == "fork") return local_worker_endpoints(argv0, workers);
  if (backend != "remote")
    throw InvalidArgument("--backend must be 'thread', 'fork' or 'remote', "
                          "not '" + backend + "'");
  std::vector<std::string> hosts;
  for (const auto& endpoint :
       split(cli.get_or("hosts", "loopback,loopback"), ','))
    if (!trim(endpoint).empty()) hosts.emplace_back(trim(endpoint));
  if (hosts.empty())
    throw InvalidArgument("--hosts names no endpoint for --backend=remote");
  return hosts;
}

namespace {

/// Routes "spawn:PATH" to a local worker process, "loopback*" in-process
/// and everything else to TCP.
class DispatchingTransport final : public Transport {
 public:
  std::unique_ptr<Connection> connect(const std::string& endpoint) override {
    if (is_spawn_endpoint(endpoint)) return spawn_worker(endpoint);
    if (starts_with(endpoint, "loopback")) return loopback_.connect(endpoint);
    return tcp_.connect(endpoint);
  }

 private:
  TcpTransport tcp_;
  LoopbackTransport loopback_;
};

}  // namespace

std::shared_ptr<Transport> make_transport() {
  return std::make_shared<DispatchingTransport>();
}

}  // namespace phonoc
