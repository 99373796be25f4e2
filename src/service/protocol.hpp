#pragma once
/// \file protocol.hpp
/// \brief Wire protocol of the phonocd mapping service.
///
/// Every message is one exec/serialize frame (length + FNV-1a checksum)
/// carried over a sched Connection — the service reuses the scheduler's
/// transport and framing wholesale; only the payload grammar is new.
/// Payloads are line-oriented text: a single header line, optionally
/// followed by a body that reuses the exec/serialize formats verbatim
/// (`write_spec` for requests, `write_cell_result` blocks for results),
/// so the bit-exact round-trip contract of the shard protocol carries
/// over unchanged.
///
/// Client -> server payloads:
///   hello phonoc-service v1 [client <name>]
///   request <id> deadline <seconds> max_cells <n> [priority <p>]\n<spec text>
///   evaluate <id> tiles <t0> <t1> ...\n<spec text>
///   stats
///   quit
///
/// Server -> client payloads:
///   hello phonoc-service v1
///   accepted <id> cells <n>
///   cell <id>\n<phonoc-cell block>
///   done <id> ok <n> failed <m>
///   rejected <id> <kind> <reason ...>
///   evaluation <id> fitness <f> snr_db <s> loss_db <l>
///   stats\n<metric value lines>
///   error <message>
///
/// Request ids are client-chosen opaque tokens (single line, no
/// whitespace, at most 64 bytes) echoed on every reply, so a client may
/// pipeline several requests down one connection and match the streamed
/// `cell` frames — which may arrive in any order within a request — by
/// id plus the cell's grid index. Exactly one terminal frame (`done` or
/// `rejected`) ends each accepted or refused request.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/batch_engine.hpp"
#include "exec/sweep.hpp"
#include "topology/topology.hpp"

namespace phonoc {

/// Service handshake payload; both sides send it first. Prefix-matched
/// (like kSchedHello) so later revisions may append fields. The server
/// reads an optional `client <name>` suffix as the connection's
/// fairness identity (same syntax rules as a request id); connections
/// announcing the same name share one scheduler sub-queue.
inline constexpr const char* kServiceHello = "hello phonoc-service v1";
/// Client farewell: the daemon goes back to accepting instead of
/// logging a peer death.
inline constexpr const char* kServiceQuit = "quit";
/// Metrics snapshot request (no arguments).
inline constexpr const char* kServiceStats = "stats";
/// Metrics in Prometheus text exposition format: the broker's registry
/// (phonocd_* families) plus the process-wide obs::MetricsRegistry
/// (phonoc_* instrumentation counters). Same `stats\n<body>` reply
/// frame, different body grammar.
inline constexpr const char* kServiceStatsPrometheus = "stats prometheus";

/// Why the broker refused a request (the token after `rejected <id>`).
enum class RejectKind {
  Overloaded,      ///< admission queue or outstanding-cell budget is full
  Budget,          ///< the grid exceeds the request's / server's max_cells
  Deadline,        ///< the request's deadline passed while it was queued
  Malformed,       ///< the request payload did not parse
  Shutdown,        ///< the broker is draining; no new work is admitted
  PerClientLimit,  ///< this client alone already fills its queue share
  Internal,        ///< request-level execution failure (see the reason)
};

[[nodiscard]] std::string_view reject_kind_token(RejectKind kind) noexcept;
/// Throws ParseError on an unknown token.
[[nodiscard]] RejectKind parse_reject_kind(std::string_view token);

/// Requested scheduling lane of a sweep request. `Auto` (the default,
/// and the only value old clients can send — the header field is
/// optional) routes by grid size: at most the broker's interactive
/// cell threshold goes to the interactive lane, anything larger to
/// bulk. Explicit values pin the lane; per-client fair queuing bounds
/// the damage a mislabelled request can do within its lane.
enum class RequestPriority { Auto, Interactive, Bulk };

[[nodiscard]] std::string_view priority_token(RequestPriority p) noexcept;
/// Throws ParseError on an unknown token.
[[nodiscard]] RequestPriority parse_priority(std::string_view token);

/// One mapping/sweep job: a full SweepSpec plus the per-request budget.
struct ServiceRequest {
  std::string id;
  /// Wall-clock budget in seconds from submission; a request still
  /// queued when it expires is shed with RejectKind::Deadline. 0 = none.
  double deadline_seconds = 0.0;
  /// Reject (RejectKind::Budget) when the expanded grid exceeds this
  /// many cells. 0 = no client-side cap (the server cap still applies).
  std::uint64_t max_cells = 0;
  /// Optional lane hint; written on the wire only when not Auto, so a
  /// default-priority request's bytes are identical to the pre-lane
  /// protocol.
  RequestPriority priority = RequestPriority::Auto;
  SweepSpec spec;
};

/// Single-mapping job: score one explicit assignment against the spec's
/// first (workload, topology, goal) coordinate. Answered synchronously
/// (no admission queue) through the same problem cache and memo.
struct EvaluateRequest {
  std::string id;
  std::vector<TileId> assignment;
  SweepSpec spec;
};

/// Throws ParseError unless `id` is a valid request id: non-empty, at
/// most 64 bytes, no whitespace or control characters.
void validate_request_id(std::string_view id);

[[nodiscard]] std::string write_request(const ServiceRequest& request);
[[nodiscard]] ServiceRequest parse_request(const std::string& payload);

[[nodiscard]] std::string write_evaluate(const EvaluateRequest& request);
[[nodiscard]] EvaluateRequest parse_evaluate(const std::string& payload);

// --- server-side reply builders --------------------------------------------

[[nodiscard]] std::string accepted_reply(const std::string& id,
                                         std::size_t cells);
[[nodiscard]] std::string cell_reply(const std::string& id,
                                     const CellResult& result);
[[nodiscard]] std::string done_reply(const std::string& id, std::size_t ok,
                                     std::size_t failed);
[[nodiscard]] std::string rejected_reply(const std::string& id,
                                         RejectKind kind,
                                         const std::string& reason);
[[nodiscard]] std::string evaluation_reply(const std::string& id,
                                           double fitness, double snr_db,
                                           double loss_db);
[[nodiscard]] std::string stats_reply(const std::string& text);
[[nodiscard]] std::string error_reply(const std::string& message);

// --- client-side reply parser ----------------------------------------------

/// One parsed server reply; which fields are meaningful follows `kind`.
struct ServiceReply {
  enum class Kind {
    Hello,       ///< handshake echo
    Accepted,    ///< `cells`
    Cell,        ///< `result` (parsed from the embedded cell block)
    Done,        ///< `ok`, `failed`
    Rejected,    ///< `reject`, `reason`
    Evaluation,  ///< `fitness`, `snr_db`, `loss_db`
    Stats,       ///< `body` (the metric/value text)
    Error,       ///< `body` (the message)
  };

  Kind kind = Kind::Error;
  std::string id;  ///< request id (empty for Hello/Stats/Error)
  std::size_t cells = 0;
  CellResult result;
  std::size_t ok = 0;
  std::size_t failed = 0;
  RejectKind reject = RejectKind::Internal;
  std::string reason;
  double fitness = 0.0;
  double snr_db = 0.0;
  double loss_db = 0.0;
  std::string body;
};

/// Parse any server payload; throws ParseError on malformed replies
/// (clients treat that like a corrupt stream and drop the connection).
[[nodiscard]] ServiceReply parse_reply(const std::string& payload);

}  // namespace phonoc
