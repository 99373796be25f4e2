#pragma once
/// \file server.hpp
/// \brief Connection handling of the phonocd mapping service.
///
/// serve_client() is the per-connection loop: handshake, then request /
/// evaluate / stats frames in, streamed cell frames and terminal
/// done/rejected frames out, until "quit" or the peer disconnects. It
/// plugs any sched Connection into a shared RequestBroker, so tests
/// drive it over socketpairs while phonocd runs it on accepted TCP
/// sockets. ServiceServer is the accept loop that phonocd wraps: one
/// handler thread per connection, all multiplexed onto one broker.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/transport.hpp"
#include "service/broker.hpp"

namespace phonoc {

struct ServiceServerOptions {
  /// How long to wait for the next request frame before giving up on
  /// the peer; <= 0 waits forever (the daemon default — clients say
  /// "quit").
  double idle_timeout_seconds = 0.0;
};

/// Serve one client connection to completion; returns the number of
/// request frames handled (requests, evaluates and stats). A peer that
/// dials but never says hello is dropped after 30 s. Never
/// throws: protocol errors are answered with an `error` frame (best
/// effort) and end the connection. Does not return while any accepted
/// job of this connection is still running — a vanished client cancels
/// its in-flight request (the broker skips the remaining cells) rather
/// than orphaning callbacks into a dead connection.
std::size_t serve_client(Connection& conn, RequestBroker& broker,
                         const ServiceServerOptions& options = {});

/// The phonocd accept loop: owns the listener, the broker and one
/// handler thread per live connection.
class ServiceServer {
 public:
  /// Binds and listens immediately (port 0 picks an ephemeral port —
  /// read it back with port()).
  ServiceServer(std::uint16_t port, BrokerOptions broker_options,
                ServiceServerOptions options = {});
  /// Joins every handler thread; the broker drains afterwards (member
  /// order), shedding still-queued jobs with RejectKind::Shutdown.
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }
  [[nodiscard]] RequestBroker& broker() noexcept { return broker_; }

  /// Accept and serve until `max_connections` have been handled
  /// (0 = forever) or the listener dies. Blocking; phonocd's main loop.
  void run(std::size_t max_connections = 0);

 private:
  void reap_finished();

  ServiceServerOptions options_;
  RequestBroker broker_;
  TcpListener listener_;

  struct Handler {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;  ///< set on handler exit
  };
  std::mutex handlers_mutex_;
  std::vector<Handler> handlers_;
};

}  // namespace phonoc
