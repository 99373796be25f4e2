#pragma once
/// \file prom_http.hpp
/// \brief Minimal plain-HTTP scrape listener for Prometheus.
///
/// phonocd's native surface is the framed protocol (`stats prometheus`
/// over a frame-speaking client), but a stock Prometheus server — or a
/// bare `curl localhost:N/metrics` — speaks HTTP/1.1. PromHttpServer
/// runs one background thread that accepts connections on a loopback
/// TCP port (reusing the sched transport's TcpListener socket
/// plumbing), reads one request, answers `200 OK text/plain` with the
/// body produced by the render callback, and closes. Any path serves
/// the metrics; there is nothing else to route.
///
/// Scope: a scrape endpoint, not a web server. One request per
/// connection, no keep-alive, no TLS, loopback bind only — matching the
/// threat model of the framed listener next to it.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace phonoc::obs {

class PromHttpServer {
 public:
  /// Produces the exposition body for one scrape (called per request,
  /// from the listener thread).
  using Render = std::function<std::string()>;

  /// Binds and starts serving immediately; throws ExecError when the
  /// port cannot be bound. `port` 0 picks an ephemeral port.
  PromHttpServer(std::uint16_t port, Render render);
  /// Stops the listener thread and closes the socket.
  ~PromHttpServer();
  PromHttpServer(const PromHttpServer&) = delete;
  PromHttpServer& operator=(const PromHttpServer&) = delete;

  /// The bound port (useful with port 0).
  [[nodiscard]] std::uint16_t port() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace phonoc::obs
