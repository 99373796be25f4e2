/// \file phonocd.cpp
/// \brief The long-lived mapping service daemon (src/service/).
///
/// Listens on a TCP port and serves concurrent clients: framed
/// handshake, then mapping/sweep requests in, streamed CellResult
/// frames out (see src/service/README.md for the protocol, the
/// admission-control policy and the metrics catalog). All connections
/// share one RequestBroker — one admission queue, one backend, one
/// cross-request problem cache with the warm Evaluators of each problem.
///
///     phonocd --port=7501 &
///     phonoc_client --port=7501 --benchmarks=pip --optimizers=rs
///
/// Flags:
///   --port=N              listening port (0 picks an ephemeral port;
///                         the chosen port is printed either way)
///   --once / --max-conns=N  exit after serving 1 / N connections
///   --workers=N           cell workers (0 = hardware threads)
///   --backend=thread|fork|remote   execution backend; fork spawns
///                         --workers phonoc_workerd processes
///   --hosts=EP1,EP2,...   remote backend: phonoc_workerd endpoints
///                         (host:port, spawn:PATH or loopback;
///                         default loopback,loopback)
///   --request-concurrency=N  requests executing concurrently (broker
///                         worker pool size; 0 = hardware threads,
///                         1 = the old one-at-a-time behavior)
///   --max-queue=N         admission queue depth (default 8)
///   --max-queue-per-client=N  requests one client may have queued
///                         (default 0 = no per-client cap)
///   --interactive-cells=N  lane routing threshold: auto-priority
///                         requests with at most N cells take the
///                         interactive lane (default 4)
///   --drr-quantum=N       deficit-round-robin quantum in cells
///                         (default 32)
///   --max-outstanding-cells=N  outstanding-cell cap (default 4096,
///                         0 = uncapped)
///   --max-cells=N         per-request grid cap (default 0 = uncapped)
///   --evaluator-cache=N   memo entries per warm Evaluator of the
///                         in-process path (default 1024; 0 turns the
///                         memo off); fleet workers keep the default
///   --max-problems=N      problems kept in the cross-request cache,
///                         each with its warm Evaluators (default 64)
///   --idle-timeout=SECS   drop clients idle this long (0 = never)
///   --stats-csv=FILE      write the final metrics snapshot as CSV on
///                         graceful exit (requires --once/--max-conns)
///   --prom-port=N         serve the Prometheus text exposition of the
///                         live metrics over plain HTTP on this
///                         loopback port (GET any path; 0 picks an
///                         ephemeral port, printed at startup) —
///                         the same text a framed `stats prometheus`
///                         request returns
///   --trace=FILE          record flight-recorder events (admit /
///                         execute / cell spans, shed instants) and
///                         write Chrome trace_event JSON on exit
///
/// Exit codes: 0 = served the requested connections, 1 = setup error.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>

#include "obs/prom_http.hpp"
#include "obs/trace.hpp"
#include "sched/transport.hpp"
#include "service/server.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace phonoc;
  const CliOptions cli(argc, argv);
  const auto max_conns =  // 0 = forever
      cli.has("once") ? std::size_t{1}
                      : cli.get_uint<std::size_t>("max-conns", 0);

  BrokerOptions broker;
  broker.workers = cli.get_uint<std::size_t>("workers", 0);
  try {
    broker.fleet = fleet_from_cli(cli, argv[0], broker.workers);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  broker.request_concurrency =
      cli.get_uint<std::size_t>("request-concurrency", 0);
  broker.max_queue_depth = cli.get_uint<std::size_t>("max-queue", 8);
  broker.max_queue_per_client =
      cli.get_uint<std::size_t>("max-queue-per-client", 0);
  broker.interactive_cell_threshold = cli.get_uint(
      "interactive-cells", BrokerOptions{}.interactive_cell_threshold);
  broker.drr_quantum_cells =
      cli.get_uint("drr-quantum", BrokerOptions{}.drr_quantum_cells);
  broker.max_outstanding_cells =
      cli.get_uint<std::size_t>("max-outstanding-cells", 4096);
  broker.max_cells_per_request = cli.get_uint<std::uint64_t>("max-cells", 0);
  broker.evaluator.cache_capacity =
      cli.get_uint("evaluator-cache", EvaluatorOptions{}.cache_capacity);
  broker.cache.max_problems = cli.get_uint<std::size_t>("max-problems", 64);

  ServiceServerOptions server_options;
  server_options.idle_timeout_seconds = cli.get_double("idle-timeout", 0.0);

  const auto trace_path = cli.get_or("trace", "");
  if (!trace_path.empty()) obs::start_tracing();

  try {
    const auto port = cli.get_port("port", 7501);
    const auto prom_port = cli.get_port("prom-port", 0);
    ServiceServer server(port, broker, server_options);
    std::cout << "phonocd: listening on 127.0.0.1:" << server.port()
              << " (backend=" << cli.get_or("backend", "thread")
              << ", queue=" << broker.max_queue_depth
              << ", request-concurrency="
              << server.broker().worker_count() << ")" << std::endl;
    std::optional<obs::PromHttpServer> prom;
    if (cli.has("prom-port")) {
      prom.emplace(prom_port, [&server] {
        return server.broker().scrape(StatsFormat::Prometheus);
      });
      std::cout << "phonocd: metrics on http://127.0.0.1:" << prom->port()
                << "/metrics" << std::endl;
    }
    server.run(max_conns);
    const auto stats = server.broker().stats();
    std::uint64_t connections = 0;
    std::uint64_t accepted = 0;
    std::uint64_t shed = 0;
    for (const auto& [name, value] : stats) {
      const auto count = static_cast<std::uint64_t>(value);
      if (name == "connections") connections = count;
      if (name == "requests_accepted") accepted = count;
      if (starts_with(name, "shed_")) shed += count;
    }
    std::cout << "phonocd: served " << connections << " connection(s), "
              << accepted << " request(s) accepted, " << shed << " shed"
              << std::endl;
    if (const auto csv = cli.get("stats-csv")) {
      std::ofstream out(*csv);
      out << "metric,value\n";
      for (const auto& [name, value] : stats)
        out << name << ',' << format_double(value) << '\n';
      if (!out) {
        std::cerr << "phonocd: cannot write " << *csv << "\n";
        return 1;
      }
      std::cout << "phonocd: metrics written to " << *csv << std::endl;
    }
  } catch (const std::exception& e) {
    std::cerr << "phonocd: " << e.what() << "\n";
    return 1;
  }
  if (!trace_path.empty()) {
    obs::stop_tracing();
    obs::write_chrome_trace_file(trace_path);
    std::cout << "phonocd: trace (" << obs::trace_event_count()
              << " events) written to " << trace_path << std::endl;
  }
  return 0;
}
