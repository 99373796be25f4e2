/// \file phonoc_client.cpp
/// \brief Command-line client of the phonocd mapping service.
///
/// Dials a daemon, submits one sweep request (optionally several times
/// down the same connection) and reorders the streamed per-cell frames
/// into grid order. Doubles as the CI smoke harness: `--verify` proves
/// the served results bit-identical to a local in-process BatchEngine
/// run, `--expect-reject` asserts structured load shedding, and
/// `--timeout` turns a hung daemon into a clean exit code instead of a
/// stuck pipeline. With `--concurrency` it becomes a load generator:
/// N connections submit the same request in parallel and per-request
/// latencies land in `--latency-csv`.
///
///     phonoc_client --port=7501 --benchmarks=pip,mwd --optimizers=rs,ga
///                   --evals=500 --seeds=2 --verify
///
/// Flags:
///   --host=H --port=N     daemon endpoint (default 127.0.0.1:7501)
///   --id=NAME             request id (default "cli")
///   --client=NAME         announce a fairness identity in the
///                         handshake; connections sharing a name share
///                         one scheduler sub-queue (default: none —
///                         the daemon treats each connection as its
///                         own client)
///   --benchmarks=A,B,...  workload dimension (default pip)
///   --topology=mesh|torus --goal=snr|loss
///   --optimizers=o1,o2    optimizer dimension (default rs)
///   --evals=N --seeds=N   budget / seed dimensions
///   --sample --samples=N  switch the grid to Sample cells
///   --deadline=SECS       per-request deadline budget (0 = none)
///   --max-cells=N         per-request cell budget (0 = none)
///   --priority=auto|interactive|bulk  requested scheduling lane
///                         (default auto: the daemon routes by grid
///                         size)
///   --repeat=N            submit the identical request N times (the
///                         cross-request memo demo; default 1)
///   --concurrency=N       load-generator mode: N connections submit
///                         the request --repeat times each, in
///                         parallel (verify/expect-reject do not apply)
///   --latency-csv=FILE    write one CSV row per load-generator
///                         request: connection, round, cells, ok,
///                         failed, latency seconds
///   --stats               fetch and print the metrics snapshot instead
///   --stats-prometheus    fetch the Prometheus text exposition instead
///                         (same body `--prom-port` serves over HTTP)
///   --verify              compare against a local in-process run
///   --expect-reject=KIND  succeed iff the request is rejected with
///                         KIND (overloaded|budget|deadline|...)
///   --timeout=SECS        per-reply receive deadline (default 120)
///
/// Exit codes: 0 = success (including an expected rejection),
/// 2 = unexpected rejection / missing expected rejection,
/// 3 = connection, protocol or timeout failure, 4 = verify mismatch.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/batch_engine.hpp"
#include "sched/transport.hpp"
#include "service/protocol.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace {

using namespace phonoc;

/// The hello payload, with the optional fairness identity appended.
std::string hello_payload(const std::string& client) {
  if (client.empty()) return kServiceHello;
  return std::string(kServiceHello) + " client " + client;
}

/// One completed load-generator request.
struct LatencyRow {
  std::size_t connection = 0;
  std::size_t round = 0;
  std::size_t cells = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  double seconds = 0.0;
};

/// Drive one connection of the load generator: handshake, then submit
/// the request `repeats` times, recording submit -> done wall time.
/// Returns the worst exit code encountered (0, 2 or 3).
int run_load_connection(const std::string& endpoint, double timeout,
                        const std::string& client,
                        const ServiceRequest& base, std::size_t connection,
                        std::size_t repeats, std::vector<LatencyRow>& rows) {
  std::unique_ptr<Connection> conn;
  try {
    TcpTransport transport(timeout);
    conn = transport.connect(endpoint);
  } catch (const std::exception& e) {
    std::cerr << "phonoc_client: cannot reach " << endpoint << ": "
              << e.what() << "\n";
    return 3;
  }
  if (!conn->send(hello_payload(client))) return 3;
  try {
    const auto hello = conn->recv(timeout);
    if (hello.status != Connection::RecvStatus::Ok ||
        parse_reply(hello.payload).kind != ServiceReply::Kind::Hello)
      return 3;
  } catch (const std::exception&) {
    return 3;
  }
  int code = 0;
  for (std::size_t round = 0; round < repeats; ++round) {
    ServiceRequest request = base;
    request.id = base.id + "-c" + std::to_string(connection) + "-r" +
                 std::to_string(round);
    const Timer wall;
    if (!conn->send(write_request(request))) return 3;
    LatencyRow row;
    row.connection = connection;
    row.round = round;
    bool done = false;
    while (!done) {
      ServiceReply reply;
      try {
        const auto received = conn->recv(timeout);
        if (received.status != Connection::RecvStatus::Ok) return 3;
        reply = parse_reply(received.payload);
      } catch (const std::exception& e) {
        std::cerr << "phonoc_client: protocol failure: " << e.what() << "\n";
        return 3;
      }
      switch (reply.kind) {
        case ServiceReply::Kind::Accepted:
          row.cells = reply.cells;
          break;
        case ServiceReply::Kind::Cell:
          break;  // latency mode cares about completion, not payloads
        case ServiceReply::Kind::Done:
          row.ok = reply.ok;
          row.failed = reply.failed;
          row.seconds = wall.elapsed_seconds();
          rows.push_back(row);
          done = true;
          break;
        case ServiceReply::Kind::Rejected:
          std::cerr << "request " << reply.id << ": rejected ("
                    << reject_kind_token(reply.reject) << ") "
                    << reply.reason << "\n";
          code = std::max(code, 2);
          done = true;
          break;
        default:
          return 3;
      }
    }
  }
  (void)conn->send(kServiceQuit);
  return code;
}

/// Load-generator mode: `connections` threads submit `base` in
/// parallel; per-request latencies go to `csv_path` (when set) and a
/// latency summary to stdout.
int run_load_generator(const CliOptions& cli, const ServiceRequest& base,
                       const std::string& endpoint, double timeout,
                       const std::string& client) {
  const auto connections =
      std::max<std::size_t>(1, cli.get_uint<std::size_t>("concurrency", 1));
  const auto repeats =
      std::max<std::size_t>(1, cli.get_uint<std::size_t>("repeat", 1));
  std::vector<std::vector<LatencyRow>> rows(connections);
  std::vector<int> codes(connections, 0);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t i = 0; i < connections; ++i)
    threads.emplace_back([&, i] {
      codes[i] = run_load_connection(endpoint, timeout, client, base, i,
                                     repeats, rows[i]);
    });
  for (auto& thread : threads) thread.join();

  std::vector<double> latencies;
  std::size_t completed = 0;
  for (const auto& per_conn : rows)
    for (const auto& row : per_conn) {
      latencies.push_back(row.seconds);
      ++completed;
    }
  std::sort(latencies.begin(), latencies.end());
  const auto quantile = [&](double q) {
    if (latencies.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(latencies.size() - 1) + 0.5);
    return latencies[std::min(rank, latencies.size() - 1)];
  };
  std::cout << "load: " << completed << "/" << connections * repeats
            << " request(s) completed, latency p50 "
            << format_double(quantile(0.5)) << "s p99 "
            << format_double(quantile(0.99)) << "s\n";

  if (const auto csv = cli.get("latency-csv")) {
    std::ofstream out(*csv);
    out << "connection,round,cells,ok,failed,seconds\n";
    for (const auto& per_conn : rows)
      for (const auto& row : per_conn)
        out << row.connection << ',' << row.round << ',' << row.cells << ','
            << row.ok << ',' << row.failed << ','
            << format_double(row.seconds) << '\n';
    if (!out) {
      std::cerr << "phonoc_client: cannot write " << *csv << "\n";
      return 3;
    }
  }
  return *std::max_element(codes.begin(), codes.end());
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli(argc, argv);
  const auto endpoint = cli.get_or("host", "127.0.0.1") + ":" +
                        std::to_string(cli.get_port("port", 7501));
  const double timeout = cli.get_double("timeout", 120.0);
  const auto expect_reject = cli.get("expect-reject");
  const auto client_name = cli.get_or("client", "");
  if (!client_name.empty()) {
    try {
      validate_request_id(client_name);
    } catch (const std::exception& e) {
      std::cerr << "phonoc_client: bad --client: " << e.what() << "\n";
      return 2;
    }
  }

  ServiceRequest request;
  request.id = cli.get_or("id", "cli");
  request.deadline_seconds = cli.get_double("deadline", 0.0);
  request.max_cells = cli.get_uint<std::uint64_t>("max-cells", 0);
  try {
    request.priority = parse_priority(cli.get_or("priority", "auto"));
    for (const auto& name : split(cli.get_or("benchmarks", "pip"), ','))
      if (!trim(name).empty())
        request.spec.add_benchmark(std::string(trim(name)));
    request.spec.add_topology(cli.get_or("topology", "mesh") == "torus"
                                  ? TopologyKind::Torus
                                  : TopologyKind::Mesh);
    request.spec.add_goal(cli.get_or("goal", "snr") == "loss"
                              ? OptimizationGoal::InsertionLoss
                              : OptimizationGoal::Snr);
    for (const auto& name : split(cli.get_or("optimizers", "rs"), ','))
      if (!trim(name).empty())
        request.spec.add_optimizer(std::string(trim(name)));
    request.spec
        .add_budget(cli.get_uint<std::uint64_t>("evals", 500))
        .add_seed_range(1, cli.get_uint<std::size_t>("seeds", 1));
    if (cli.has("sample")) {
      SamplingSpec sampling;
      sampling.samples_per_cell = cli.get_uint<std::uint64_t>("samples", 1000);
      request.spec.use_sampling(sampling);
    }
  } catch (const std::exception& e) {
    std::cerr << "phonoc_client: bad spec: " << e.what() << "\n";
    return 2;
  }

  if (cli.has("concurrency") && !cli.has("stats") &&
      !cli.has("stats-prometheus"))
    return run_load_generator(cli, request, endpoint, timeout, client_name);

  std::unique_ptr<Connection> conn;
  try {
    TcpTransport transport(timeout);
    conn = transport.connect(endpoint);
  } catch (const std::exception& e) {
    std::cerr << "phonoc_client: cannot reach " << endpoint << ": "
              << e.what() << "\n";
    return 3;
  }
  const auto recv_reply = [&]() -> std::optional<ServiceReply> {
    try {
      const auto received = conn->recv(timeout);
      if (received.status != Connection::RecvStatus::Ok) {
        std::cerr << "phonoc_client: "
                  << (received.status == Connection::RecvStatus::Timeout
                          ? "timed out waiting for the daemon"
                          : "daemon closed the connection")
                  << "\n";
        return std::nullopt;
      }
      return parse_reply(received.payload);
    } catch (const std::exception& e) {
      std::cerr << "phonoc_client: protocol failure: " << e.what() << "\n";
      return std::nullopt;
    }
  };

  if (!conn->send(hello_payload(client_name))) {
    std::cerr << "phonoc_client: handshake send failed\n";
    return 3;
  }
  const auto hello = recv_reply();
  if (!hello || hello->kind != ServiceReply::Kind::Hello) {
    std::cerr << "phonoc_client: no service handshake\n";
    return 3;
  }

  if (cli.has("stats") || cli.has("stats-prometheus")) {
    if (!conn->send(cli.has("stats-prometheus") ? kServiceStatsPrometheus
                                                : kServiceStats))
      return 3;
    const auto reply = recv_reply();
    if (!reply || reply->kind != ServiceReply::Kind::Stats) return 3;
    std::cout << reply->body;
    (void)conn->send(kServiceQuit);
    return 0;
  }

  const auto repeats =
      std::max<std::size_t>(1, cli.get_uint<std::size_t>("repeat", 1));
  std::vector<CellResult> results;
  for (std::size_t round = 0; round < repeats; ++round) {
    if (!conn->send(write_request(request))) {
      std::cerr << "phonoc_client: request send failed\n";
      return 3;
    }
    std::size_t expected = 0;
    std::vector<CellResult> streamed;
    std::vector<bool> seen;
    bool done = false;
    while (!done) {
      const auto reply = recv_reply();
      if (!reply) return 3;
      switch (reply->kind) {
        case ServiceReply::Kind::Accepted:
          expected = reply->cells;
          streamed.resize(expected);
          seen.assign(expected, false);
          break;
        case ServiceReply::Kind::Cell: {
          const auto index = reply->result.cell.index;
          if (index >= streamed.size()) {
            std::cerr << "phonoc_client: cell index " << index
                      << " out of range\n";
            return 3;
          }
          streamed[index] = reply->result;
          seen[index] = true;
          break;
        }
        case ServiceReply::Kind::Done: {
          for (std::size_t i = 0; i < seen.size(); ++i)
            if (!seen[i]) {
              std::cerr << "phonoc_client: done without cell " << i << "\n";
              return 3;
            }
          std::cout << "request " << reply->id << ": " << reply->ok
                    << " ok, " << reply->failed << " failed\n";
          done = true;
          break;
        }
        case ServiceReply::Kind::Rejected: {
          std::cout << "request " << reply->id << ": rejected ("
                    << reject_kind_token(reply->reject) << ") "
                    << reply->reason << "\n";
          (void)conn->send(kServiceQuit);
          if (expect_reject &&
              *expect_reject == reject_kind_token(reply->reject))
            return 0;
          return 2;
        }
        default:
          std::cerr << "phonoc_client: unexpected reply\n";
          return 3;
      }
    }
    results = std::move(streamed);
  }
  (void)conn->send(kServiceQuit);

  if (expect_reject) {
    std::cerr << "phonoc_client: expected a '" << *expect_reject
              << "' rejection, but the request completed\n";
    return 2;
  }

  if (cli.has("verify")) {
    const auto local = BatchEngine(BatchOptions{}).run(request.spec);
    if (local.size() != results.size()) {
      std::cerr << "verify: cell count mismatch\n";
      return 4;
    }
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < local.size(); ++i)
      if (!identical_results(results[i], local[i])) {
        std::cerr << "verify: cell " << i << " differs\n";
        ++mismatches;
      }
    if (mismatches != 0) return 4;
    std::cout << "verify: " << local.size()
              << " cell(s) bit-identical to the in-process run\n";
  }
  return 0;
}
