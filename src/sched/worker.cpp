#include "sched/worker.hpp"

#include <cstdlib>
#include <exception>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>

#include "exec/batch_engine.hpp"
#include "exec/problem_cache.hpp"
#include "exec/serialize.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace phonoc {
namespace {

/// A peer that dials but never says hello is dropped after this long.
constexpr double kHandshakeTimeoutSeconds = 30.0;
/// Between shards, wait for the peer as long as it stays connected.
constexpr double kWaitForever = 0.0;

/// Answer a broken request and end the connection (best effort: the
/// peer may already be gone).
std::size_t protocol_error(Connection& conn, std::size_t cells_served,
                           const std::string& message) {
  log_warning("sched") << "sched worker: " << message;
  (void)conn.send(std::string(kSchedErrorPrefix) + " " + message);
  return cells_served;
}

}  // namespace

std::size_t serve_connection(Connection& conn, const WorkerOptions& options) {
  std::size_t cells_served = 0;

  Connection::RecvResult hello;
  try {
    hello = conn.recv(kHandshakeTimeoutSeconds);
  } catch (const std::exception& e) {
    // A non-scheduler peer (port scanner, stray HTTP probe) sends
    // unframed bytes; that must drop the connection, not the daemon.
    return protocol_error(conn, cells_served,
                          std::string("unframed handshake: ") + e.what());
  }
  // Prefix match: a scheduler may append fields after the version token
  // (as this side does with `capacity`), and those must not look like a
  // version mismatch to an older worker.
  const bool hello_ok =
      hello.status == Connection::RecvStatus::Ok &&
      (hello.payload == kSchedHello ||
       starts_with(hello.payload, std::string(kSchedHello) + " "));
  if (!hello_ok)
    return protocol_error(
        conn, cells_served,
        hello.status == Connection::RecvStatus::Ok
            ? "handshake mismatch: got '" + hello.payload + "', want '" +
                  kSchedHello + "'"
            : "peer vanished before the handshake");
  std::size_t threads = options.threads;
  if (threads == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    threads = hardware > 0 ? hardware : 1;
  }
  if (!conn.send(std::string(kSchedHello) + " capacity " +
                 std::to_string(threads)))
    return cells_served;

  // Built lazily on the first shard wide enough to use it, so a
  // handshake-only probe never spawns threads.
  std::unique_ptr<ThreadPool> pool;
  // Schedulers send many small shards of the same spec down one
  // connection: problems are built once per connection, not per shard.
  ProblemCache problems;
  for (;;) {
    Connection::RecvResult request;
    try {
      request = conn.recv(kWaitForever);
    } catch (const std::exception& e) {
      return protocol_error(conn, cells_served,
                            std::string("corrupt frame: ") + e.what());
    }
    if (request.status != Connection::RecvStatus::Ok) return cells_served;
    if (request.payload == kSchedQuit) return cells_served;

    SweepShard shard;
    try {
      std::istringstream in(request.payload);
      shard = read_shard(in);
    } catch (const std::exception& e) {
      return protocol_error(conn, cells_served,
                            std::string("unreadable shard: ") + e.what());
    }

    obs::TraceSpan shard_span("sched", "serve_shard");
    shard_span.arg({"begin", std::uint64_t(shard.begin)});
    shard_span.arg({"end", std::uint64_t(shard.end)});
    static obs::Counter& shards = obs::MetricsRegistry::global().counter(
        "phonoc_sched_shards_served_total",
        "Shards executed by the worker-daemon service loop.");
    shards.inc();
    try {
      const auto cells = expand(shard.spec);
      if (shard.end > cells.size())
        return protocol_error(
            conn, cells_served,
            "slice [" + std::to_string(shard.begin) + ", " +
                std::to_string(shard.end) + ") exceeds the grid size " +
                std::to_string(cells.size()));
      const std::span<const SweepCell> slice(cells.data() + shard.begin,
                                             shard.end - shard.begin);
      const auto slice_problems = problems.problems(shard.spec, slice);
      if (!pool && threads > 1 && slice.size() > 1)
        pool = std::make_unique<ThreadPool>(threads);

      bool peer_gone = false;
      run_cells(
          shard.spec, slice, pool.get(),
          [&](const SweepCell& cell) {
            if (options.crash_index >= 0 &&
                cell.index == static_cast<std::size_t>(options.crash_index)) {
              // Injected poison cell: every frame already sent stays
              // intact.
              log_warning("sched") << "sched worker: injected crash at cell "
                                   << cell.index;
              std::abort();
            }
            const auto& entry =
                slice_problems.at({cell.workload, cell.topology, cell.goal});
            return run_sweep_cell(shard.spec, cell, *entry.problem);
          },
          [&](CellResult result) {
            // A dead peer skips the rest of the slice instead of
            // computing frames nobody reads.
            if (peer_gone) return false;
            std::ostringstream block;
            write_cell_result(block, result);
            peer_gone = !conn.send(block.str());
            if (!peer_gone) ++cells_served;
            return !peer_gone;
          });
      if (peer_gone) return cells_served;
      if (!conn.send(std::string(kSchedDonePrefix) + " " +
                     std::to_string(slice.size())))
        return cells_served;
    } catch (const std::exception& e) {
      // Shard-level failures (e.g. problem construction) are protocol
      // answers, not worker deaths: the scheduler re-routes the shard.
      return protocol_error(conn, cells_served,
                            std::string("shard execution failed: ") +
                                e.what());
    }
  }
}

}  // namespace phonoc
