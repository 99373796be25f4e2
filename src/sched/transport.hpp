#pragma once
/// \file transport.hpp
/// \brief Pluggable byte transports for the distributed sweep scheduler.
///
/// A Transport dials worker endpoints and returns Connections — framed,
/// bidirectional, message-oriented channels. Every message is one
/// exec/serialize frame (length + FNV-1a checksum wrapping the existing
/// line-oriented shard/cell text), so corruption and truncation surface
/// as explicit errors rather than misparsed work.
///
/// Shipped implementations:
///  - TcpTransport     — dials "host:port" `phonoc_workerd` daemons.
///  - LoopbackTransport — serves each connection from an in-process
///    thread over a socketpair: the full framing + scheduler code path
///    with no daemon to start (tests and single-host use).
///  - make_transport() — endpoint-dispatching default ("spawn:PATH"
///    spawns a crash-isolated local worker process, "loopback*" goes to
///    LoopbackTransport, anything else to TcpTransport).
///
/// Scheduler failure-path tests inject their own Transport (an
/// in-memory fake with scripted deaths/delays); the scheduler only
/// tells endpoint kinds apart to respawn spawn hosts that died.
///
/// Every descriptor this layer opens (socket, socketpair, accept) is
/// close-on-exec, so a spawned worker inherits nothing but its own
/// socket end and sees EOF the moment its scheduler lets go.
///
/// POSIX-only: on other platforms connect() throws ExecError.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace phonoc {

/// Scheduler <-> worker handshake payload. Both sides send it as their
/// first frame; a mismatch (version drift, a non-scheduler peer) kills
/// the connection before any work is exchanged.
inline constexpr const char* kSchedHello = "hello phonoc-sched v1";
/// Client farewell: the worker closes the connection (a daemon goes
/// back to accepting) instead of treating the close as a peer death.
inline constexpr const char* kSchedQuit = "quit";
/// Worker end-of-shard marker: "done <cells-emitted>".
inline constexpr const char* kSchedDonePrefix = "done";
/// Worker-side protocol failure: "error <message>".
inline constexpr const char* kSchedErrorPrefix = "error";

/// One framed, bidirectional channel to a worker. Implementations need
/// not be thread-safe: the scheduler drives each connection from a
/// single host-driver thread.
class Connection {
 public:
  enum class RecvStatus {
    Ok,       ///< `payload` holds one complete message
    Timeout,  ///< nothing arrived within the deadline; retry is safe
    Closed,   ///< the peer is gone (EOF, reset, or local close)
  };
  struct RecvResult {
    RecvStatus status = RecvStatus::Closed;
    std::string payload;
  };

  virtual ~Connection() = default;

  /// Send one message; false when the peer is gone (never throws for
  /// an ordinary peer death).
  virtual bool send(const std::string& payload) = 0;

  /// Receive the next message. `timeout_seconds` <= 0 waits forever.
  /// Throws ParseError when the stream is corrupt (bad checksum) —
  /// callers treat that exactly like a dead peer.
  [[nodiscard]] virtual RecvResult recv(double timeout_seconds) = 0;

  /// Idempotent; recv() on a closed connection returns Closed.
  virtual void close() = 0;

  /// How the peer process ended, once close() has reaped it (e.g.
  /// "killed by signal 6 (Aborted)"); empty when the peer is not a
  /// child process of this one (daemons, loopback threads, fakes).
  [[nodiscard]] virtual std::string exit_status() const { return {}; }
};

/// Connection factory for one kind of endpoint.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Dial `endpoint`; throws ExecError when the host cannot be reached.
  [[nodiscard]] virtual std::unique_ptr<Connection> connect(
      const std::string& endpoint) = 0;
};

/// Framed connection over a POSIX file descriptor (socket or
/// socketpair end). Takes ownership of the descriptor.
[[nodiscard]] std::unique_ptr<Connection> make_fd_connection(int fd);

/// Dials "host:port" TCP endpoints (a `phonoc_workerd` fleet).
class TcpTransport : public Transport {
 public:
  /// `connect_timeout_seconds` bounds the TCP dial (not later recvs).
  explicit TcpTransport(double connect_timeout_seconds = 10.0);
  [[nodiscard]] std::unique_ptr<Connection> connect(
      const std::string& endpoint) override;

 private:
  double connect_timeout_seconds_;
};

/// Serves every connection from an in-process worker thread over a
/// socketpair (the same serve_connection() loop `phonoc_workerd` runs).
/// Destruction joins the server threads; close every Connection first.
class LoopbackTransport : public Transport {
 public:
  /// The worker body run for each served connection. The default is
  /// `serve_connection(conn, {})`; tests and benches inject a body with
  /// non-default WorkerOptions (e.g. a fixed exec-pool width) to pin
  /// worker-side behaviour without a daemon process.
  using Server = std::function<std::size_t(Connection&)>;

  LoopbackTransport();
  explicit LoopbackTransport(Server server);
  ~LoopbackTransport() override;
  [[nodiscard]] std::unique_ptr<Connection> connect(
      const std::string& endpoint) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Endpoint prefix of a local worker process. Connecting to
/// "spawn:PATH" fork/execs `PATH --stdio --threads=1` (a
/// `phonoc_workerd`) on a socketpair; closing the connection reaps the
/// child (killing it if it still runs) and exit_status() names how it
/// ended. The scheduler respawns spawn hosts that die.
inline constexpr std::string_view kSpawnPrefix = "spawn:";
[[nodiscard]] inline bool is_spawn_endpoint(std::string_view endpoint) {
  return endpoint.substr(0, kSpawnPrefix.size()) == kSpawnPrefix;
}

/// Throws ExecError when a spawn endpoint's binary path (one with a
/// '/') is not executable; other endpoints and bare names pass.
void check_spawn_endpoint(const std::string& endpoint);

/// `count` spawn endpoints (0 = one per hardware thread) for the
/// `phonoc_workerd` in argv0's directory: the `--backend=fork` fleet.
[[nodiscard]] std::vector<std::string> local_worker_endpoints(
    const std::string& argv0, std::size_t count);

class CliOptions;

/// The fleet a program's `--backend` and `--hosts` flags name, read in
/// one place for every program: `thread` (the default) is no fleet,
/// so the cells run in process; `fork` is local_worker_endpoints(argv0,
/// workers); `remote` is the comma-separated `--hosts` endpoints
/// (default `loopback,loopback`). Throws InvalidArgument for any other
/// backend, or a `--hosts` list without an endpoint.
[[nodiscard]] std::vector<std::string> fleet_from_cli(
    const CliOptions& cli, const std::string& argv0, std::size_t workers);

/// The default endpoint-dispatching transport: spawn endpoints are
/// local worker processes, "loopback*" is served in-process, everything
/// else is dialed as TCP.
[[nodiscard]] std::shared_ptr<Transport> make_transport();

/// Listening side of TcpTransport, used by `phonoc_workerd`. Binds and
/// listens on construction (port 0 picks an ephemeral port — read it
/// back with port()); accept_for() waits for the next scheduler dial.
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Next inbound connection, waiting at most `timeout_seconds` (<= 0
  /// waits forever), with TCP_NODELAY set like the dialing side's.
  /// Returns nullptr on timeout or when the listener itself is broken;
  /// running out of descriptors or memory and pending network errors
  /// back off and keep waiting. Pollers that need to re-check a stop
  /// flag between dials pass a timeout (the scheduler's
  /// dynamic-admission loop).
  [[nodiscard]] std::unique_ptr<Connection> accept_for(
      double timeout_seconds);
  /// Like accept_for() but hands back the raw accepted descriptor
  /// (caller owns it; -1 on timeout/error) instead of wrapping it in a
  /// framed Connection. For byte-oriented peers that do not speak the
  /// frame protocol — the obs/prom_http plain-HTTP scrape listener.
  [[nodiscard]] int accept_fd_for(double timeout_seconds);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace phonoc
