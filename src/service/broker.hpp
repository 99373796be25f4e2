#pragma once
/// \file broker.hpp
/// \brief The RequestBroker: admission control and request execution.
///
/// One broker multiplexes every client connection of a phonocd daemon
/// onto one shared executor: its own cell pool, or a fleet through the
/// Scheduler. Admission
/// is bounded and sheds explicitly: a request that would exceed the
/// queue depth, the client's own queue share, or the outstanding-cell
/// budget is rejected *immediately* with a structured answer — the
/// service never queues unboundedly and never silently drops work.
///
/// Accepted requests are executed by a pool of
/// `BrokerOptions::request_concurrency` broker workers pulling from a
/// weighted-fair scheduler (service/scheduler.hpp) instead of one FIFO
/// deque: per-client sub-queues with a deficit-round-robin pick keyed
/// by request cost (cells), inside two priority lanes — `interactive`
/// for small grids under `interactive_cell_threshold` (or an explicit
/// `priority interactive` request field), `bulk` for the rest — so
/// cheap requests overtake long sweeps instead of head-of-line-blocking
/// behind them. With `request_concurrency = 1` exactly one request runs
/// at a time, and a single client's requests execute in submission
/// order with byte-identical streams (the pre-pool behavior, pinned by
/// test). Within a request, cells fan out over the broker's persistent
/// thread pool (through run_cells) or, when `BrokerOptions::fleet`
/// names endpoints, over that fleet (Scheduler::run), and either way
/// stream to the client as they settle.
///
/// Event contract, per submit() call:
///  * rejected at admission — submit() returns the rejection; no events
///    fire (the caller already holds the answer to send);
///  * accepted — `on_accepted` fires synchronously inside submit()
///    (before the job can start, so the `accepted` frame is on the wire
///    ahead of any `cell` frame), then exactly one terminal event fires
///    later from a broker worker: `on_done` (the request ran — even if
///    the client vanished mid-stream) or `on_reject` (shed from the
///    queue on deadline/shutdown, or a request-level execution
///    failure).
///
/// Bit-identity: the in-process path runs BatchEngine's per-cell code
/// (`run_sweep_cell`, same seeds) on a warm Evaluator checked out of
/// the problem cache. Concurrent requests share the cache but never
/// mutate each other's state: problems are immutable, a running cell
/// holds its Evaluator exclusively, and a reused Evaluator scores
/// exactly like a fresh one (see exec/problem_cache.hpp). So every
/// request's streamed results are bit-identical to a solo run of the
/// same spec at any concurrency.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "exec/batch_engine.hpp"
#include "exec/problem_cache.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "util/timer.hpp"

namespace phonoc {

struct BrokerOptions {
  /// Cell workers of the in-process pool; 0 = the hardware thread
  /// count, 1 runs a request's cells inline on its broker worker.
  std::size_t workers = 0;
  /// Worker endpoints (see SchedulerOptions::hosts); empty runs the
  /// cells in process. A fleet runs them in other processes, outside
  /// the problem cache and its warm Evaluators.
  std::vector<std::string> fleet;
  /// Options of the warm Evaluators the problem cache builds (memo
  /// capacity; 0 turns the memo off).
  EvaluatorOptions evaluator{};
  /// Requests executing concurrently: the broker worker pool size.
  /// 0 derives from the hardware concurrency; 1 preserves the
  /// single-executor behavior exactly (one request at a time, FIFO per
  /// client).
  std::size_t request_concurrency = 0;
  /// Requests allowed to wait across all clients; a submit that finds
  /// the queue at this depth is shed (RejectKind::Overloaded).
  std::size_t max_queue_depth = 8;
  /// Requests one client may have queued (both lanes); beyond it the
  /// submit is shed with RejectKind::PerClientLimit, so a single client
  /// can no longer fill the whole admission queue. 0 = no per-client
  /// cap (the global depth still applies).
  std::size_t max_queue_per_client = 0;
  /// Estimated outstanding cost cap: queued cells plus the unfinished
  /// cells of every executing request. A request whose grid would push
  /// the total beyond this is shed (RejectKind::Overloaded). 0 = no
  /// cap.
  std::size_t max_outstanding_cells = 4096;
  /// Server-side per-request grid cap (RejectKind::Budget beyond it);
  /// 0 = no cap. The client's own ServiceRequest::max_cells is enforced
  /// independently.
  std::uint64_t max_cells_per_request = 0;
  /// Lane routing: an Auto-priority request with at most this many
  /// cells goes to the interactive lane, larger grids to bulk. An
  /// explicit `priority` request field pins the lane either way.
  std::size_t interactive_cell_threshold = 4;
  /// Deficit-round-robin quantum in cells: the service one client may
  /// consume per scheduler round before the pick moves on.
  std::size_t drr_quantum_cells = 32;
  /// Cross-request reuse (see ProblemCache::Options).
  ProblemCache::Options cache{};
  /// Construct paused (test hook): jobs queue but never start until
  /// resume() — admission decisions become deterministic.
  bool start_paused = false;
};

/// Callbacks of one submitted request. `on_cell` streams a finished
/// cell and returns false when the client is unreachable (the broker
/// then skips the request's remaining cells). All callbacks are invoked
/// from broker threads and must not throw.
struct JobEvents {
  std::function<void(std::size_t cells)> on_accepted;
  std::function<bool(const CellResult& result)> on_cell;
  std::function<void(std::size_t ok, std::size_t failed)> on_done;
  std::function<void(RejectKind kind, const std::string& reason)> on_reject;
  /// Optional liveness probe, checked before a queued job starts; a
  /// false return skips execution entirely (counted as canceled).
  std::function<bool()> alive;
};

/// Outcome of an admission decision.
struct Submission {
  bool accepted = false;
  std::size_t cells = 0;                     ///< expanded grid size
  RejectKind kind = RejectKind::Overloaded;  ///< valid when !accepted
  std::string reason;
};

/// What a single-mapping `evaluate` request answers with.
struct EvaluationAnswer {
  double fitness = 0.0;
  double snr_db = 0.0;
  double loss_db = 0.0;
};

/// Bucket upper bounds of the broker's latency histograms (request wall
/// time and per-lane queue wait): log-spaced from 100 µs to 100 s, five
/// per decade (1, 1.6, 2.5, 4, 6.3 x 10^n).
[[nodiscard]] std::vector<double> latency_buckets();

/// What RequestBroker::scrape renders.
enum class StatsFormat {
  Text,        ///< the `stats` lines as `name value` (framed `stats`)
  Prometheus,  ///< text exposition (`stats prometheus`, --prom-port)
};

class RequestBroker {
 public:
  explicit RequestBroker(BrokerOptions options);
  /// Finishes the executing requests, then sheds everything still
  /// queued with RejectKind::Shutdown, joins the worker pool.
  ~RequestBroker();

  RequestBroker(const RequestBroker&) = delete;
  RequestBroker& operator=(const RequestBroker&) = delete;

  /// Admission decision for one request (thread-safe; called from
  /// connection threads). `client` is the fairness identity the request
  /// queues under — connections of the same client share one sub-queue;
  /// empty means anonymous (all anonymous submits share one queue).
  /// See the event contract above.
  [[nodiscard]] Submission submit(ServiceRequest request, JobEvents events,
                                  const std::string& client = {});

  /// Score one explicit mapping against the request's first
  /// (workload, topology, goal) coordinate, synchronously, on a warm
  /// Evaluator of the shared problem cache. Throws phonoc::Error on
  /// invalid input (empty dimensions, non-injective assignment).
  [[nodiscard]] EvaluationAnswer evaluate(const EvaluateRequest& request);

  /// Every `stats` line in catalog order (src/service/README.md): the
  /// broker registry's counters and gauges, then the latency quantiles
  /// read off its histograms. A plain read, not counted as a scrape.
  [[nodiscard]] std::vector<std::pair<std::string, double>> stats() const;

  /// One stats() line by name; throws InvalidArgument for a name not in
  /// the catalog.
  [[nodiscard]] double stat(std::string_view name) const;

  /// A metrics scrape, counted once in stats_requests: the framed
  /// `stats` and `stats prometheus` requests and the --prom-port HTTP
  /// listener all render through here. Prometheus is the broker
  /// registry's exposition (phonocd_* counters, gauges and latency
  /// histograms) followed by the process-wide obs::MetricsRegistry
  /// (phonoc_* instrumentation).
  [[nodiscard]] std::string scrape(StatsFormat format);

  /// Count a client connection that completed the handshake.
  void count_connection() noexcept;
  /// Count one rejection of `kind` — a shed, a frame the server could
  /// not parse, or an accepted request that failed executing (Internal)
  /// — and mark it on the trace timeline.
  void count_rejection(RejectKind kind, const std::string& id);

  /// Test hooks: freeze/unfreeze the broker workers so admission
  /// behavior can be asserted deterministically.
  void pause();
  void resume();

  /// Broker workers actually running (the resolved request_concurrency).
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  [[nodiscard]] const BrokerOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Metrics;  ///< handles into registry_ (broker.cpp)

  struct Job {
    ServiceRequest request;
    JobEvents events;
    std::string client;
    ServiceLane lane = ServiceLane::Bulk;
    std::size_t cells = 0;
    /// Cells of this job still counted in the broker's in-flight sum;
    /// decremented per finished cell, zeroed when the job ends (so a
    /// shed or canceled job releases its whole contribution at once).
    std::size_t cells_left = 0;
    Timer queued;  ///< queue-wait clock for the deadline check
  };

  void worker_loop();
  void execute(Job& job);
  /// Run the job's cells and stream each as it settles. No fleet: each
  /// cell on a warm Evaluator of the job's lane (check it out,
  /// run_sweep_cell, count the run's memo activity, check it back in)
  /// through run_cells on the broker pool. A fleet: Scheduler::run on
  /// it, streaming through the same callback.
  void run_job(Job& job, bool& canceled, std::size_t& ok,
               std::size_t& failed);
  void finish_cell(Job& job);
  [[nodiscard]] ServiceLane route(const ServiceRequest& request,
                                  std::size_t cells) const noexcept;
  /// Set the gauges only a render can sample: queue depths, the
  /// in-flight ledgers and uptime.
  void sample_gauges() const;

  BrokerOptions options_;
  obs::MetricsRegistry registry_;     ///< one per broker: counts are its own
  std::unique_ptr<Metrics> metrics_;  ///< registered in catalog order
  ProblemCache cache_;                ///< adds problem_cache_* to registry_
  Timer uptime_;
  std::unique_ptr<ThreadPool> pool_;  ///< in-process cell fan-out

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  FairScheduler<Job> sched_;
  std::size_t queued_cells_ = 0;        ///< sum over queued jobs
  std::size_t running_cells_left_ = 0;  ///< sum over executing jobs
  std::size_t running_jobs_ = 0;        ///< executing requests
  bool paused_ = false;
  bool stop_ = false;

  std::vector<std::thread> workers_;  ///< the request-execution pool
};

}  // namespace phonoc
