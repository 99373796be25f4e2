#include "service/protocol.hpp"

#include <cctype>
#include <sstream>

#include "exec/serialize.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace phonoc {
namespace {

/// Split a payload into its header line and the body after the first
/// newline (empty body when the payload is a single line).
std::pair<std::string_view, std::string_view> split_header(
    std::string_view payload) {
  const auto newline = payload.find('\n');
  if (newline == std::string_view::npos) return {payload, {}};
  return {payload.substr(0, newline), payload.substr(newline + 1)};
}

SweepSpec parse_spec_body(std::string_view body, const char* what) {
  if (trim(body).empty())
    throw ParseError(std::string(what) + ": missing spec body");
  std::istringstream in{std::string(body)};
  return read_spec(in);
}

}  // namespace

std::string_view reject_kind_token(RejectKind kind) noexcept {
  switch (kind) {
    case RejectKind::Overloaded: return "overloaded";
    case RejectKind::Budget: return "budget";
    case RejectKind::Deadline: return "deadline";
    case RejectKind::Malformed: return "malformed";
    case RejectKind::Shutdown: return "shutdown";
    case RejectKind::PerClientLimit: return "per_client_limit";
    case RejectKind::Internal: return "internal";
  }
  return "internal";
}

RejectKind parse_reject_kind(std::string_view token) {
  if (token == "overloaded") return RejectKind::Overloaded;
  if (token == "budget") return RejectKind::Budget;
  if (token == "deadline") return RejectKind::Deadline;
  if (token == "malformed") return RejectKind::Malformed;
  if (token == "shutdown") return RejectKind::Shutdown;
  if (token == "per_client_limit") return RejectKind::PerClientLimit;
  if (token == "internal") return RejectKind::Internal;
  throw ParseError("unknown reject kind '" + std::string(token) + "'");
}

std::string_view priority_token(RequestPriority p) noexcept {
  switch (p) {
    case RequestPriority::Auto: return "auto";
    case RequestPriority::Interactive: return "interactive";
    case RequestPriority::Bulk: return "bulk";
  }
  return "auto";
}

RequestPriority parse_priority(std::string_view token) {
  if (token == "auto") return RequestPriority::Auto;
  if (token == "interactive") return RequestPriority::Interactive;
  if (token == "bulk") return RequestPriority::Bulk;
  throw ParseError("unknown request priority '" + std::string(token) + "'");
}

void validate_request_id(std::string_view id) {
  if (id.empty()) throw ParseError("request id is empty");
  if (id.size() > 64)
    throw ParseError("request id exceeds 64 bytes: '" + std::string(id) +
                     "'");
  for (const char c : id)
    if (std::isspace(static_cast<unsigned char>(c)) ||
        std::iscntrl(static_cast<unsigned char>(c)))
      throw ParseError("request id contains whitespace or control bytes");
}

std::string write_request(const ServiceRequest& request) {
  validate_request_id(request.id);
  std::ostringstream out;
  out << "request " << request.id << " deadline "
      << format_double(request.deadline_seconds) << " max_cells "
      << request.max_cells;
  // Emitted only when set: an Auto-priority request is byte-identical
  // to the pre-lane wire format.
  if (request.priority != RequestPriority::Auto)
    out << " priority " << priority_token(request.priority);
  out << '\n' << kShardMagic << '\n';
  write_spec(out, request.spec);
  return out.str();
}

ServiceRequest parse_request(const std::string& payload) {
  const auto [header, body] = split_header(payload);
  const auto tokens = split_ws(header);
  const bool has_priority = tokens.size() == 8 && tokens[6] == "priority";
  if ((tokens.size() != 6 && !has_priority) || tokens[0] != "request" ||
      tokens[2] != "deadline" || tokens[4] != "max_cells")
    throw ParseError("malformed request header: '" + std::string(header) +
                     "'");
  ServiceRequest request;
  validate_request_id(tokens[1]);
  request.id = tokens[1];
  request.deadline_seconds = parse_double(tokens[3]);
  if (request.deadline_seconds < 0.0)
    throw ParseError("request deadline is negative");
  request.max_cells = parse_uint<std::uint64_t>(tokens[5], 1);
  if (has_priority) request.priority = parse_priority(tokens[7]);
  request.spec = parse_spec_body(body, "request");
  return request;
}

std::string write_evaluate(const EvaluateRequest& request) {
  validate_request_id(request.id);
  std::ostringstream out;
  out << "evaluate " << request.id << " tiles";
  for (const TileId tile : request.assignment) out << ' ' << tile;
  out << '\n' << kShardMagic << '\n';
  write_spec(out, request.spec);
  return out.str();
}

EvaluateRequest parse_evaluate(const std::string& payload) {
  const auto [header, body] = split_header(payload);
  const auto tokens = split_ws(header);
  if (tokens.size() < 4 || tokens[0] != "evaluate" || tokens[2] != "tiles")
    throw ParseError("malformed evaluate header: '" + std::string(header) +
                     "'");
  EvaluateRequest request;
  validate_request_id(tokens[1]);
  request.id = tokens[1];
  request.assignment.reserve(tokens.size() - 3);
  for (std::size_t i = 3; i < tokens.size(); ++i)
    request.assignment.push_back(parse_uint<TileId>(tokens[i], 1));
  request.spec = parse_spec_body(body, "evaluate");
  return request;
}

std::string accepted_reply(const std::string& id, std::size_t cells) {
  return "accepted " + id + " cells " + std::to_string(cells);
}

std::string cell_reply(const std::string& id, const CellResult& result) {
  std::ostringstream out;
  out << "cell " << id << '\n';
  write_cell_result(out, result);
  return out.str();
}

std::string done_reply(const std::string& id, std::size_t ok,
                       std::size_t failed) {
  return "done " + id + " ok " + std::to_string(ok) + " failed " +
         std::to_string(failed);
}

std::string rejected_reply(const std::string& id, RejectKind kind,
                           const std::string& reason) {
  return "rejected " + id + " " + std::string(reject_kind_token(kind)) +
         " " + reason;
}

std::string evaluation_reply(const std::string& id, double fitness,
                             double snr_db, double loss_db) {
  return "evaluation " + id + " fitness " + format_double(fitness) +
         " snr_db " + format_double(snr_db) + " loss_db " +
         format_double(loss_db);
}

std::string stats_reply(const std::string& text) {
  return std::string(kServiceStats) + "\n" + text;
}

std::string error_reply(const std::string& message) {
  return "error " + message;
}

ServiceReply parse_reply(const std::string& payload) {
  const auto [header, body] = split_header(payload);
  const auto tokens = split_ws(header);
  if (tokens.empty()) throw ParseError("empty service reply");
  ServiceReply reply;
  const std::string& kind = tokens[0];
  if (kind == "hello") {
    if (payload != kServiceHello &&
        !starts_with(payload, std::string(kServiceHello) + " "))
      throw ParseError("service handshake mismatch: '" + payload + "'");
    reply.kind = ServiceReply::Kind::Hello;
    return reply;
  }
  if (kind == "accepted") {
    if (tokens.size() != 4 || tokens[2] != "cells")
      throw ParseError("malformed accepted reply: '" + payload + "'");
    reply.kind = ServiceReply::Kind::Accepted;
    reply.id = tokens[1];
    reply.cells = parse_uint<std::size_t>(tokens[3], 1);
    return reply;
  }
  if (kind == "cell") {
    if (tokens.size() != 2)
      throw ParseError("malformed cell reply header: '" +
                       std::string(header) + "'");
    reply.kind = ServiceReply::Kind::Cell;
    reply.id = tokens[1];
    std::istringstream in{std::string(body)};
    auto result = read_cell_result(in);
    if (!result) throw ParseError("cell reply without a cell block");
    reply.result = std::move(*result);
    return reply;
  }
  if (kind == "done") {
    if (tokens.size() != 6 || tokens[2] != "ok" || tokens[4] != "failed")
      throw ParseError("malformed done reply: '" + payload + "'");
    reply.kind = ServiceReply::Kind::Done;
    reply.id = tokens[1];
    reply.ok = parse_uint<std::size_t>(tokens[3], 1);
    reply.failed = parse_uint<std::size_t>(tokens[5], 1);
    return reply;
  }
  if (kind == "rejected") {
    if (tokens.size() < 3)
      throw ParseError("malformed rejected reply: '" + payload + "'");
    reply.kind = ServiceReply::Kind::Rejected;
    reply.id = tokens[1];
    reply.reject = parse_reject_kind(tokens[2]);
    for (std::size_t i = 3; i < tokens.size(); ++i) {
      if (i > 3) reply.reason += ' ';
      reply.reason += tokens[i];
    }
    return reply;
  }
  if (kind == "evaluation") {
    if (tokens.size() != 8 || tokens[2] != "fitness" ||
        tokens[4] != "snr_db" || tokens[6] != "loss_db")
      throw ParseError("malformed evaluation reply: '" + payload + "'");
    reply.kind = ServiceReply::Kind::Evaluation;
    reply.id = tokens[1];
    reply.fitness = parse_double(tokens[3]);
    reply.snr_db = parse_double(tokens[5]);
    reply.loss_db = parse_double(tokens[7]);
    return reply;
  }
  if (kind == kServiceStats) {
    reply.kind = ServiceReply::Kind::Stats;
    reply.body = std::string(body);
    return reply;
  }
  if (kind == "error") {
    reply.kind = ServiceReply::Kind::Error;
    reply.body = std::string(trim(header.substr(5)));
    return reply;
  }
  throw ParseError("unknown service reply '" + kind + "'");
}

}  // namespace phonoc
