#include "service/server.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <string>
#include <utility>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace phonoc {
namespace {

/// A peer that dials but never says hello is dropped after this long.
constexpr double kHandshakeTimeoutSeconds = 30.0;

/// Serializes every frame a connection emits. Cell frames arrive from
/// broker worker threads while the connection thread answers stats and
/// pipelined submissions, so all sends funnel through one mutex. Also
/// the connection's job ledger: serve_client must not return (and drop
/// the Connection) while a broker job still holds callbacks into it, so
/// jobs are counted in and out and wait_idle() blocks until the ledger
/// is clean. A failed send latches the writer shut — the broker's next
/// on_cell returns false and the job cancels instead of hammering a
/// dead socket.
class ResponseWriter {
 public:
  explicit ResponseWriter(Connection& conn) : conn_(conn) {}

  bool send(const std::string& payload) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shut_) return false;
    if (!conn_.send(payload)) {
      shut_ = true;
      return false;
    }
    return true;
  }

  [[nodiscard]] bool open() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return !shut_;
  }

  void shut() {
    const std::lock_guard<std::mutex> lock(mutex_);
    shut_ = true;
  }

  void job_started() {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++jobs_;
  }

  void job_finished() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (jobs_ > 0 && --jobs_ == 0) idle_cv_.notify_all();
  }

  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [&] { return jobs_ == 0; });
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  Connection& conn_;
  bool shut_ = false;
  std::size_t jobs_ = 0;
};

/// Best-effort request id of a payload that failed to parse, so the
/// rejection still names the request the client sent.
std::string salvage_id(const std::string& payload) {
  const auto newline = payload.find('\n');
  const auto tokens = split_ws(std::string_view(payload).substr(
      0, newline == std::string::npos ? payload.size() : newline));
  if (tokens.size() < 2) return "-";
  try {
    validate_request_id(tokens[1]);
  } catch (const ParseError&) {
    return "-";
  }
  return tokens[1];
}

std::string first_line_of(const std::string& payload, std::size_t limit) {
  auto line = payload.substr(0, payload.find('\n'));
  if (line.size() > limit) line = line.substr(0, limit) + "...";
  return line;
}

/// Fairness identity of a connection, from the optional
/// `client <name>` hello suffix (the hello is prefix-matched, so old
/// clients simply have no suffix). Named connections of the same client
/// share one scheduler sub-queue; an unnamed (or malformed) suffix
/// falls back to a per-connection identity, so fairness degrades to
/// per-connection instead of lumping every anonymous peer together.
std::string client_identity(const std::string& hello_payload) {
  static std::atomic<std::uint64_t> next_anonymous{0};
  const std::size_t prefix = std::string_view(kServiceHello).size();
  if (hello_payload.size() > prefix) {
    const auto tokens =
        split_ws(std::string_view(hello_payload).substr(prefix));
    if (tokens.size() == 2 && tokens[0] == "client") {
      try {
        validate_request_id(tokens[1]);  // same charset/length rules
        return tokens[1];
      } catch (const ParseError&) {
        // fall through to the per-connection identity
      }
    }
  }
  return "conn#" + std::to_string(next_anonymous.fetch_add(1) + 1);
}

}  // namespace

std::size_t serve_client(Connection& conn, RequestBroker& broker,
                         const ServiceServerOptions& options) {
  Connection::RecvResult hello;
  try {
    hello = conn.recv(kHandshakeTimeoutSeconds);
  } catch (const std::exception& e) {
    // A non-client peer (port scanner, stray HTTP probe) sends unframed
    // bytes; drop the connection, not the daemon.
    (void)conn.send(
        error_reply(std::string("unframed handshake: ") + e.what()));
    return 0;
  }
  const bool hello_ok =
      hello.status == Connection::RecvStatus::Ok &&
      (hello.payload == kServiceHello ||
       starts_with(hello.payload, std::string(kServiceHello) + " "));
  if (!hello_ok) {
    if (hello.status == Connection::RecvStatus::Ok)
      (void)conn.send(error_reply("handshake mismatch: got '" +
                                  hello.payload + "', want '" +
                                  kServiceHello + "'"));
    return 0;
  }
  if (!conn.send(kServiceHello)) return 0;
  broker.count_connection();
  const std::string client = client_identity(hello.payload);

  const auto writer = std::make_shared<ResponseWriter>(conn);
  std::size_t handled = 0;
  for (;;) {
    Connection::RecvResult request;
    try {
      request = conn.recv(options.idle_timeout_seconds);
    } catch (const std::exception& e) {
      (void)writer->send(
          error_reply(std::string("corrupt frame: ") + e.what()));
      break;
    }
    if (request.status != Connection::RecvStatus::Ok) break;
    if (request.payload == kServiceQuit) break;

    if (request.payload == kServiceStats ||
        request.payload == kServiceStatsPrometheus) {
      ++handled;
      (void)writer->send(stats_reply(
          broker.scrape(request.payload == kServiceStats
                            ? StatsFormat::Text
                            : StatsFormat::Prometheus)));
      continue;
    }

    if (starts_with(request.payload, "evaluate ")) {
      ++handled;
      std::string id = salvage_id(request.payload);
      try {
        const auto evaluate = parse_evaluate(request.payload);
        id = evaluate.id;
        const auto answer = broker.evaluate(evaluate);
        (void)writer->send(evaluation_reply(id, answer.fitness,
                                            answer.snr_db, answer.loss_db));
      } catch (const ParseError& e) {
        broker.count_rejection(RejectKind::Malformed, id);
        (void)writer->send(
            rejected_reply(id, RejectKind::Malformed, e.what()));
      } catch (const InvalidArgument& e) {
        broker.count_rejection(RejectKind::Malformed, id);
        (void)writer->send(
            rejected_reply(id, RejectKind::Malformed, e.what()));
      } catch (const std::exception& e) {
        (void)writer->send(
            rejected_reply(id, RejectKind::Internal, e.what()));
      }
      continue;
    }

    if (starts_with(request.payload, "request ")) {
      ++handled;
      ServiceRequest parsed;
      try {
        parsed = parse_request(request.payload);
      } catch (const std::exception& e) {
        const std::string id = salvage_id(request.payload);
        broker.count_rejection(RejectKind::Malformed, id);
        (void)writer->send(
            rejected_reply(id, RejectKind::Malformed, e.what()));
        continue;
      }
      const std::string id = parsed.id;
      JobEvents events;
      events.on_accepted = [writer, id](std::size_t cells) {
        (void)writer->send(accepted_reply(id, cells));
      };
      events.on_cell = [writer, id](const CellResult& result) {
        return writer->send(cell_reply(id, result));
      };
      events.on_done = [writer, id](std::size_t ok, std::size_t failed) {
        (void)writer->send(done_reply(id, ok, failed));
        writer->job_finished();
      };
      events.on_reject = [writer, id](RejectKind kind,
                                      const std::string& reason) {
        (void)writer->send(rejected_reply(id, kind, reason));
        writer->job_finished();
      };
      events.alive = [writer] { return writer->open(); };
      // Count the job in before submit: an accepted job may finish (and
      // call job_finished) before submit even returns.
      writer->job_started();
      const Submission outcome =
          broker.submit(std::move(parsed), std::move(events), client);
      if (!outcome.accepted) {
        writer->job_finished();
        (void)writer->send(
            rejected_reply(id, outcome.kind, outcome.reason));
      }
      continue;
    }

    (void)writer->send(error_reply("unknown request '" +
                                   first_line_of(request.payload, 80) +
                                   "'"));
    break;
  }
  // Latch the writer shut, then wait for in-flight jobs: their next
  // on_cell send fails, the broker cancels the rest of the request, and
  // the terminal on_done/on_reject balances the ledger.
  writer->shut();
  writer->wait_idle();
  return handled;
}

ServiceServer::ServiceServer(std::uint16_t port, BrokerOptions broker_options,
                             ServiceServerOptions options)
    : options_(options),
      broker_(std::move(broker_options)),
      listener_(port) {}

ServiceServer::~ServiceServer() {
  std::vector<Handler> rest;
  {
    const std::lock_guard<std::mutex> lock(handlers_mutex_);
    rest.swap(handlers_);
  }
  for (auto& handler : rest)
    if (handler.thread.joinable()) handler.thread.join();
}

void ServiceServer::reap_finished() {
  const std::lock_guard<std::mutex> lock(handlers_mutex_);
  for (auto it = handlers_.begin(); it != handlers_.end();) {
    if (*it->done) {
      if (it->thread.joinable()) it->thread.join();
      it = handlers_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServiceServer::run(std::size_t max_connections) {
  std::size_t accepted = 0;
  while (max_connections == 0 || accepted < max_connections) {
    auto conn = listener_.accept_for(0.0);
    if (!conn) break;
    ++accepted;
    reap_finished();
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::shared_ptr<Connection> shared(std::move(conn));
    std::thread thread([this, shared, done] {
      try {
        (void)serve_client(*shared, broker_, options_);
      } catch (const std::exception& e) {
        log_warning("service") << "service server: connection died: "
                               << e.what();
      }
      shared->close();
      done->store(true);
    });
    const std::lock_guard<std::mutex> lock(handlers_mutex_);
    handlers_.push_back(Handler{std::move(thread), std::move(done)});
  }
  // Serve out the connections still open, then return with a clean
  // handler ledger (the destructor would join them too; run() returning
  // with work still streaming would surprise callers like phonocd
  // --max-conns).
  std::vector<Handler> rest;
  {
    const std::lock_guard<std::mutex> lock(handlers_mutex_);
    rest.swap(handlers_);
  }
  for (auto& handler : rest)
    if (handler.thread.joinable()) handler.thread.join();
}

}  // namespace phonoc
