#include "sched/service.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exec/batch_engine.hpp"
#include "exec/serialize.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace phonoc {
namespace {

/// Answer a broken request and end the connection (best effort: the
/// peer may already be gone).
std::size_t protocol_error(Connection& conn, std::size_t cells_served,
                           const std::string& message) {
  log_warning("sched") << "sched service: " << message;
  (void)conn.send(std::string(kSchedErrorPrefix) + " " + message);
  return cells_served;
}

/// Per-connection cache of the expensive shard setup. Schedulers send
/// many small shards of the *same* spec down one connection; expanding
/// the grid and rebuilding networks/problems for each would multiply
/// the one-time cost the in-process backend pays once. Keyed on the
/// re-serialized spec text (write_spec round-trips bit-exactly, so an
/// identical key means an identical spec), problems accumulate as new
/// slices touch new (workload, topology, goal) coordinates.
struct SpecCache {
  std::string key;
  SweepSpec spec;
  std::vector<SweepCell> cells;
  std::map<SweepProblemKey, std::shared_ptr<const MappingProblem>> problems;

  /// The spec identity of a shard payload: everything before the
  /// trailing `slice b e` / `end_shard` lines. complete_shard()
  /// guarantees that prefix is byte-identical across every unit of one
  /// sweep, so this is a pure substring — no re-serialization per
  /// shard. Hand-crafted payloads that don't match the canonical tail
  /// fall back to re-serializing the parsed spec (write_spec
  /// round-trips bit-exactly, so the key is still sound).
  static std::string key_of(const std::string& payload,
                            const SweepSpec& parsed) {
    constexpr std::string_view tail = "end_shard\n";
    if (payload.size() > tail.size() &&
        std::string_view(payload).substr(payload.size() - tail.size()) ==
            tail) {
      const auto slice = payload.rfind("\nslice ", payload.size() -
                                                       tail.size() - 1);
      if (slice != std::string::npos) return payload.substr(0, slice + 1);
    }
    std::ostringstream serialized;
    write_spec(serialized, parsed);
    return serialized.str();
  }

  void adopt(const SweepShard& shard, const std::string& payload) {
    auto new_key = key_of(payload, shard.spec);
    if (new_key == key) return;
    key = std::move(new_key);
    spec = shard.spec;
    cells = expand(spec);
    problems.clear();
  }

  /// Problems for every cell of [begin, end), building only the
  /// coordinates this connection has not seen yet.
  void ensure_problems(std::size_t begin, std::size_t end) {
    std::vector<SweepCell> missing;
    for (std::size_t i = begin; i < end; ++i) {
      const auto& cell = cells[i];
      if (!problems.count(
              SweepProblemKey{cell.workload, cell.topology, cell.goal}))
        missing.push_back(cell);
    }
    if (missing.empty()) return;
    auto built = build_sweep_problems(spec, missing);
    problems.insert(built.begin(), built.end());
  }
};

/// Streams settled cells to the peer from any exec thread: one mutex
/// serializes the frame writes and the served-cell counter, so
/// concurrently settling cells leave as whole frames (in settle order,
/// not slice order — the scheduler matches by cell index).
/// Serialization happens outside the lock; only the send and the
/// counter are held under it.
class CellWriter {
 public:
  CellWriter(Connection& conn, std::size_t& cells_served)
      : conn_(conn), cells_served_(cells_served) {}

  /// False once the peer is gone (every later emit is a cheap no-op, so
  /// a dead connection drains the pool instead of wedging it).
  bool emit(const CellResult& result) {
    std::ostringstream block;
    write_cell_result(block, result);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (peer_gone_) return false;
    if (!conn_.send(block.str())) {
      peer_gone_ = true;
      return false;
    }
    ++cells_served_;
    return true;
  }

  [[nodiscard]] bool peer_gone() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return peer_gone_;
  }

 private:
  Connection& conn_;
  std::size_t& cells_served_;
  mutable std::mutex mutex_;
  bool peer_gone_ = false;
};

}  // namespace

std::size_t serve_connection(Connection& conn, const ServiceOptions& options) {
  std::size_t cells_served = 0;

  Connection::RecvResult hello;
  try {
    hello = conn.recv(options.handshake_timeout_seconds);
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
  std::size_t capacity = options.advertised_capacity;
  if (capacity == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    capacity = hardware > 0 ? hardware : 1;
  }
  if (!conn.send(std::string(kSchedHello) + " capacity " +
                 std::to_string(capacity)))
    return cells_served;

  // The internal exec pool: shard cells run `exec_threads` at a time
  // (advertised capacity by default), streaming frames as they settle.
  // Built lazily on the first shard wide enough to use it, so a
  // handshake-only probe never spawns threads.
  const std::size_t exec_threads =
      options.exec_threads > 0 ? options.exec_threads : capacity;
  std::unique_ptr<ThreadPool> pool;

  SpecCache cache;
  for (;;) {
    Connection::RecvResult request;
    try {
      request = conn.recv(options.idle_timeout_seconds);
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
      cache.adopt(shard, request.payload);
      if (shard.end > cache.cells.size())
        return protocol_error(
            conn, cells_served,
            "slice [" + std::to_string(shard.begin) + ", " +
                std::to_string(shard.end) + ") exceeds the grid size " +
                std::to_string(cache.cells.size()));
      cache.ensure_problems(shard.begin, shard.end);

      // run_sweep_cell_isolated: a throwing optimizer becomes a Failed
      // cell instead of a dead worker.
      const auto run_cell = [&](std::size_t i) {
        if (options.crash_index >= 0 &&
            i == static_cast<std::size_t>(options.crash_index)) {
          // Injected poison cell: every frame already sent stays intact.
          log_warning("sched") << "sched service: injected crash at cell "
                               << i;
          std::abort();
        }
        return run_sweep_cell_isolated(cache.spec, cache.cells[i],
                                       cache.problems, shard.evaluator);
      };
      CellWriter writer(conn, cells_served);
      if (exec_threads > 1 && shard.end - shard.begin > 1) {
        if (!pool) pool = std::make_unique<ThreadPool>(exec_threads);
        std::vector<std::future<void>> settled;
        settled.reserve(shard.end - shard.begin);
        for (std::size_t i = shard.begin; i < shard.end; ++i)
          settled.push_back(pool->submit([&, i] {
            if (writer.peer_gone()) return;  // drain cheaply after a death
            (void)writer.emit(run_cell(i));
          }));
        // Every future must be collected before anything can unwind the
        // stack the queued tasks point into; the first unexpected
        // exception is rethrown only after the shard has drained.
        std::exception_ptr first_failure;
        for (auto& cell : settled) {
          try {
            cell.get();
          } catch (...) {
            if (!first_failure) first_failure = std::current_exception();
          }
        }
        if (first_failure) std::rethrow_exception(first_failure);
      } else {
        for (std::size_t i = shard.begin; i < shard.end; ++i)
          if (!writer.emit(run_cell(i))) break;
      }
      if (writer.peer_gone()) return cells_served;
      if (!conn.send(std::string(kSchedDonePrefix) + " " +
                     std::to_string(shard.end - shard.begin)))
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
