/// \file phonoc_workerd.cpp
/// \brief Serve-over-socket worker daemon of the distributed sweep
/// scheduler (src/sched/).
///
/// Listens on a TCP port and serves scheduler connections one at a
/// time: framed handshake, then SweepShard frames in / CellResult
/// frames out (the exec/serialize wire format wrapped in
/// length+checksum frames — see src/sched/README.md). Each shard's
/// cells run on an internal exec thread pool sized by the advertised
/// capacity (`--threads` pins both). Start one daemon per machine and
/// point the scheduler at the fleet:
///
///     phonoc_workerd --port=7401 --threads=8 &
///     phonoc_workerd --port=7402 --threads=8 &
///     parallel_sweep --backend=remote --hosts=host:7401,host:7402
///
/// A daemon can also enter a sweep already in flight: `--join` dials a
/// scheduler's admission port (`parallel_sweep --admit-port=N`) instead
/// of listening, serves that one connection, and exits.
///
/// `--stdio` serves one connection on fd 0 and exits, status lines on
/// stderr: a scheduler's `spawn:PATH` host (what `--backend=fork`
/// builds) fork/execs `PATH --stdio --threads=1` on a socketpair. The
/// flag is explicit, not sniffed from fd 0, because `ssh host
/// phonoc_workerd` also hands the daemon a socket on stdin.
///
/// Flags:
///   --port=N              listening port (0 picks an ephemeral port;
///                         the chosen port is printed either way)
///   --threads=N           internal exec pool width; also advertised as
///                         this worker's capacity in the handshake
///                         (0 = the hardware thread count)
///   --join=HOST:PORT      dial a scheduler's admission port, serve the
///                         sweep in flight, exit (ignores --port/--once)
///   --stdio               serve one connection on fd 0, exit (ignores
///                         --port/--once)
///   --once                exit after serving one connection
///   --max-conns=N         exit after serving N connections
///   --trace=FILE          record flight-recorder events (serve_shard /
///                         exec cell spans) and write Chrome trace_event
///                         JSON on exit — load in Perfetto
///
/// Environment: PHONOC_WORKER_CRASH_INDEX=N is the test/CI crash hook.
/// The worker abort()s when it reaches the cell with grid index N: the
/// injected poison cell the scheduler must quarantine. Spawned workers
/// inherit it from their scheduler.
///
/// Exit codes: 0 = served the requested connections, 1 = setup error.

#include <cstdlib>
#include <iostream>

#include "obs/trace.hpp"
#include "sched/transport.hpp"
#include "sched/worker.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

/// Writes the trace on every exit path of main (including early
/// returns): armed by --trace=FILE, a no-op otherwise.
struct TraceFlusher {
  std::string path;
  std::ostream& status;
  ~TraceFlusher() {
    if (path.empty()) return;
    phonoc::obs::stop_tracing();
    phonoc::obs::write_chrome_trace_file(path);
    status << "phonoc_workerd: trace (" << phonoc::obs::trace_event_count()
           << " events) written to " << path << std::endl;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace phonoc;
  const CliOptions cli(argc, argv);
  const bool stdio = cli.has("stdio");
  std::ostream& status = stdio ? std::cerr : std::cout;
  TraceFlusher trace{cli.get_or("trace", ""), status};
  if (!trace.path.empty()) obs::start_tracing();
  std::uint16_t port = 0;
  try {
    port = cli.get_port("port", 7401);
  } catch (const InvalidArgument& e) {
    std::cerr << "phonoc_workerd: " << e.what() << "\n";
    return 1;
  }
  const auto max_conns = cli.has("once")
                             ? 1
                             : cli.get_int("max-conns", 0);  // 0 = forever
  WorkerOptions worker;
  if (const char* crash = std::getenv("PHONOC_WORKER_CRASH_INDEX");
      crash && *crash)
    worker.crash_index = parse_long(crash);
  const auto threads = cli.get_int("threads", 0);
  if (threads > 0) worker.threads = static_cast<std::size_t>(threads);

  // --stdio (a spawned worker) and --join (a late joiner dialing a
  // scheduler's admission port) serve one connection and exit. The
  // scheduler speaks first on both, as on connections it dials.
  const std::string join = cli.get_or("join", "");
  if (stdio || !join.empty()) {
    std::unique_ptr<Connection> conn;
    try {
      conn = stdio ? make_fd_connection(0) : TcpTransport().connect(join);
    } catch (const std::exception& e) {
      std::cerr << "phonoc_workerd: cannot join " << join << ": "
                << e.what() << "\n";
      return 1;
    }
    if (!stdio)
      status << "phonoc_workerd: joined scheduler at " << join << std::endl;
    const auto cells = serve_connection(*conn, worker);
    conn->close();
    // One write: sibling workers share the scheduler's stderr.
    status << "phonoc_workerd: " + std::string(stdio ? "stdio" : "sweep") +
                  " connection done, " + std::to_string(cells) +
                  " cell(s) served\n"
           << std::flush;
    return 0;
  }

  TcpListener listener(port);
  status << "phonoc_workerd: listening on 127.0.0.1:" << listener.port()
         << (worker.crash_index >= 0 ? " (crash injection armed)" : "")
         << std::endl;

  std::int64_t served = 0;
  for (;;) {
    auto conn = listener.accept_for(0.0);
    if (!conn) {
      std::cerr << "phonoc_workerd: accept failed\n";
      return 1;
    }
    const auto cells = serve_connection(*conn, worker);
    conn->close();
    ++served;
    status << "phonoc_workerd: connection " << served << " done, " << cells
           << " cell(s) served" << std::endl;
    if (max_conns > 0 && served >= max_conns) return 0;
  }
}
