#include "service/broker.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "exec/serialize.hpp"
#include "mapping/mapping.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace phonoc {

namespace {

/// Every broker metric is registered as `phonocd_<line>`: the prefixed
/// name is its Prometheus family, the bare name its `stats` line.
constexpr std::string_view kMetricPrefix = "phonocd_";

/// The memo counters of an Evaluator at one instant. Warm Evaluators
/// count cumulatively, so a run's share is the difference of two.
struct MemoCounts {
  explicit MemoCounts(const Evaluator& evaluator)
      : hits(evaluator.cache_hit_count()),
        misses(evaluator.cache_miss_count()),
        evictions(evaluator.cache_eviction_count()) {}
  std::uint64_t hits;
  std::uint64_t misses;
  std::uint64_t evictions;
};

/// The search a cell runs: optimizer, budget and seed. A warm Evaluator
/// that recently ran the same search holds the mappings it will score
/// in its memo, so ProblemCache::checkout prefers that one.
std::uint64_t search_affinity(const SweepSpec& spec, const SweepCell& cell) {
  return fnv1a64(spec.optimizers[cell.optimizer] + ' ' +
                 budget_label(spec.budgets[cell.budget]) + ' ' +
                 std::to_string(spec.seeds[cell.seed]));
}

/// Single-mapping `evaluate` requests share one affinity.
constexpr std::uint64_t kEvaluateAffinity = 0;

}  // namespace

std::vector<double> latency_buckets() {
  return {1e-4, 1.6e-4, 2.5e-4, 4e-4, 6.3e-4,  //
          1e-3, 1.6e-3, 2.5e-3, 4e-3, 6.3e-3,  //
          1e-2, 1.6e-2, 2.5e-2, 4e-2, 6.3e-2,  //
          1e-1, 1.6e-1, 2.5e-1, 4e-1, 6.3e-1,  //
          1e0,  1.6e0,  2.5e0,  4e0,  6.3e0,   //
          1e1,  1.6e1,  2.5e1,  4e1,  6.3e1,   //
          1e2};
}

/// The broker's metric handles, registered in catalog order: the order
/// of the `stats` lines (ProblemCache registers the problem_cache_*
/// counters right after these).
struct RequestBroker::Metrics {
  explicit Metrics(obs::MetricsRegistry& r);

  /// The counter a rejection of `kind` bumps; Internal (an accepted
  /// request that died executing) counts as requests_failed.
  [[nodiscard]] obs::Counter& rejections(RejectKind kind) noexcept;
  /// Fold in the memo activity of `evaluator` since `before`.
  void count_memo(const Evaluator& evaluator, const MemoCounts& before);

  obs::Gauge& queue_depth;
  obs::Gauge& queue_depth_interactive;
  obs::Gauge& queue_depth_bulk;
  obs::Gauge& in_flight_cells;
  obs::Gauge& in_flight_requests;
  obs::Gauge& uptime_seconds;
  obs::Counter& connections;
  obs::Counter& requests_accepted;
  obs::Counter& requests_completed;
  obs::Counter& requests_failed;
  obs::Counter& requests_canceled;
  obs::Counter& shed_overloaded;
  obs::Counter& shed_budget;
  obs::Counter& shed_deadline;
  obs::Counter& shed_shutdown;
  obs::Counter& shed_per_client;
  obs::Counter& requests_interactive;
  obs::Counter& requests_bulk;
  obs::Counter& interactive_overtakes;
  obs::Counter& requests_malformed;
  obs::Counter& stats_requests;
  obs::Counter& single_evaluations;
  obs::Counter& cells_ok;
  obs::Counter& cells_failed;
  obs::Counter& evaluator_cache_hits;
  obs::Counter& evaluator_cache_misses;
  obs::Counter& evaluator_cache_evictions;
  obs::HistogramMetric& wall;              ///< completed requests only
  obs::HistogramMetric& wait_interactive;  ///< submit -> dequeue, per lane
  obs::HistogramMetric& wait_bulk;
};

RequestBroker::Metrics::Metrics(obs::MetricsRegistry& r)
    : queue_depth(r.gauge("phonocd_queue_depth",
                          "Requests admitted but not yet executing.")),
      queue_depth_interactive(
          r.gauge("phonocd_queue_depth_interactive",
                  "Queued requests in the interactive lane.")),
      queue_depth_bulk(r.gauge("phonocd_queue_depth_bulk",
                               "Queued requests in the bulk lane.")),
      in_flight_cells(
          r.gauge("phonocd_in_flight_cells",
                  "Unfinished cells across all executing requests.")),
      in_flight_requests(
          r.gauge("phonocd_in_flight_requests",
                  "Requests currently executing on broker workers.")),
      uptime_seconds(r.gauge("phonocd_uptime_seconds",
                             "Seconds since the broker started.")),
      connections(r.counter("phonocd_connections",
                            "Client connections accepted.")),
      requests_accepted(r.counter("phonocd_requests_accepted",
                                  "Requests past admission control.")),
      requests_completed(r.counter("phonocd_requests_completed",
                                   "Requests that ran to completion.")),
      requests_failed(r.counter("phonocd_requests_failed",
                                "Accepted requests that died executing.")),
      requests_canceled(
          r.counter("phonocd_requests_canceled",
                    "Requests whose client vanished mid-stream.")),
      shed_overloaded(r.counter("phonocd_shed_overloaded",
                                "Requests shed: admission queue full.")),
      shed_budget(r.counter("phonocd_shed_budget",
                            "Requests shed: cell budget exceeded.")),
      shed_deadline(
          r.counter("phonocd_shed_deadline",
                    "Requests shed: deadline passed while queued.")),
      shed_shutdown(
          r.counter("phonocd_shed_shutdown",
                    "Requests shed: broker draining for shutdown.")),
      shed_per_client(r.counter(
          "phonocd_shed_per_client",
          "Requests shed: the client's own queue share is full.")),
      requests_interactive(
          r.counter("phonocd_requests_interactive",
                    "Requests routed to the interactive lane.")),
      requests_bulk(r.counter("phonocd_requests_bulk",
                              "Requests routed to the bulk lane.")),
      interactive_overtakes(
          r.counter("phonocd_interactive_overtakes",
                    "Interactive picks that jumped queued bulk requests.")),
      requests_malformed(
          r.counter("phonocd_requests_malformed",
                    "Frames that failed to parse as requests.")),
      stats_requests(r.counter("phonocd_stats_requests",
                               "Stats scrapes served (framed and HTTP).")),
      single_evaluations(
          r.counter("phonocd_single_evaluations",
                    "Single-mapping evaluation requests served.")),
      cells_ok(r.counter("phonocd_cells_ok",
                         "Sweep cells that evaluated successfully.")),
      cells_failed(r.counter("phonocd_cells_failed",
                             "Sweep cells that failed to evaluate.")),
      evaluator_cache_hits(r.counter("phonocd_evaluator_cache_hits",
                                     "Evaluator pool cache hits.")),
      evaluator_cache_misses(r.counter("phonocd_evaluator_cache_misses",
                                       "Evaluator pool cache misses.")),
      evaluator_cache_evictions(
          r.counter("phonocd_evaluator_cache_evictions",
                    "Evaluator pool cache evictions.")),
      wall(r.histogram("phonocd_wall_seconds",
                       "Wall time of completed requests.",
                       latency_buckets())),
      wait_interactive(r.histogram("phonocd_wait_seconds",
                                   "Queue wait (submit to dequeue) by lane.",
                                   latency_buckets(),
                                   {{"lane", "interactive"}})),
      wait_bulk(r.histogram("phonocd_wait_seconds",
                            "Queue wait (submit to dequeue) by lane.",
                            latency_buckets(), {{"lane", "bulk"}})) {}

obs::Counter& RequestBroker::Metrics::rejections(RejectKind kind) noexcept {
  switch (kind) {
    case RejectKind::Overloaded: return shed_overloaded;
    case RejectKind::Budget: return shed_budget;
    case RejectKind::Deadline: return shed_deadline;
    case RejectKind::Malformed: return requests_malformed;
    case RejectKind::Shutdown: return shed_shutdown;
    case RejectKind::PerClientLimit: return shed_per_client;
    case RejectKind::Internal: break;
  }
  return requests_failed;
}

void RequestBroker::Metrics::count_memo(const Evaluator& evaluator,
                                        const MemoCounts& before) {
  const MemoCounts after(evaluator);
  evaluator_cache_hits.inc(after.hits - before.hits);
  evaluator_cache_misses.inc(after.misses - before.misses);
  evaluator_cache_evictions.inc(after.evictions - before.evictions);
}

RequestBroker::RequestBroker(BrokerOptions options)
    : options_(std::move(options)),
      metrics_(std::make_unique<Metrics>(registry_)),
      cache_(options_.cache, options_.evaluator, registry_),
      sched_(options_.drr_quantum_cells) {
  paused_ = options_.start_paused;
  if (options_.fleet.empty()) {
    std::size_t workers = options_.workers != 0
                              ? options_.workers
                              : ThreadPool::default_worker_count();
    workers = std::min(workers, ThreadPool::kMaxWorkers);
    if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers);
  }
  std::size_t brokers = options_.request_concurrency != 0
                            ? options_.request_concurrency
                            : ThreadPool::default_worker_count();
  brokers = std::max<std::size_t>(
      1, std::min(brokers, ThreadPool::kMaxWorkers));
  workers_.reserve(brokers);
  for (std::size_t i = 0; i < brokers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

RequestBroker::~RequestBroker() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
  // Shutdown drain: nothing queued may be silently dropped. With the
  // workers joined nobody races the scheduler any more.
  std::vector<Job> leftovers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    leftovers = sched_.drain();
    queued_cells_ = 0;
  }
  for (auto& job : leftovers) {
    count_rejection(RejectKind::Shutdown, job.request.id);
    if (job.events.on_reject)
      job.events.on_reject(RejectKind::Shutdown, "service is shutting down");
  }
}

Submission RequestBroker::submit(ServiceRequest request, JobEvents events,
                                 const std::string& client) {
  obs::TraceSpan span("service", "admit");
  span.arg({"id", std::string_view(request.id)});
  Submission outcome;
  outcome.cells = cell_count(request.spec);
  const auto reject = [&](RejectKind kind, std::string reason) {
    count_rejection(kind, request.id);
    outcome.kind = kind;
    outcome.reason = std::move(reason);
    return outcome;
  };
  if (outcome.cells == 0)
    return reject(RejectKind::Malformed,
                  "the sweep grid is empty (a dimension has no values)");
  if (request.max_cells != 0 && outcome.cells > request.max_cells)
    return reject(RejectKind::Budget,
                  "grid has " + std::to_string(outcome.cells) +
                      " cells, the request allows max_cells=" +
                      std::to_string(request.max_cells));
  if (options_.max_cells_per_request != 0 &&
      outcome.cells > options_.max_cells_per_request)
    return reject(RejectKind::Budget,
                  "grid has " + std::to_string(outcome.cells) +
                      " cells, the server caps requests at " +
                      std::to_string(options_.max_cells_per_request));
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return reject(RejectKind::Shutdown, "service is shutting down");
    if (sched_.size() >= options_.max_queue_depth)
      return reject(RejectKind::Overloaded,
                    "admission queue is full (" +
                        std::to_string(sched_.size()) +
                        " request(s) waiting)");
    if (options_.max_queue_per_client != 0 &&
        sched_.client_depth(client) >= options_.max_queue_per_client)
      return reject(RejectKind::PerClientLimit,
                    "client already has " +
                        std::to_string(sched_.client_depth(client)) +
                        " request(s) queued (per-client cap " +
                        std::to_string(options_.max_queue_per_client) + ")");
    const std::size_t outstanding = queued_cells_ + running_cells_left_;
    if (options_.max_outstanding_cells != 0 &&
        outstanding + outcome.cells > options_.max_outstanding_cells)
      return reject(RejectKind::Overloaded,
                    std::to_string(outstanding) + " cell(s) outstanding; " +
                        std::to_string(outcome.cells) +
                        " more would exceed the cap of " +
                        std::to_string(options_.max_outstanding_cells));
    Job job;
    job.request = std::move(request);
    job.events = std::move(events);
    job.client = client;
    job.cells = outcome.cells;
    job.lane = route(job.request, job.cells);
    queued_cells_ += job.cells;
    metrics_->requests_accepted.inc();
    (job.lane == ServiceLane::Interactive ? metrics_->requests_interactive
                                          : metrics_->requests_bulk)
        .inc();
    obs::trace_instant("service", "queue",
                       {"id", std::string_view(job.request.id)},
                       {"cells", std::uint64_t(job.cells)},
                       {"depth", std::uint64_t(sched_.size())});
    // Announce under the lock: the `accepted` frame must be on the wire
    // before a broker worker can dequeue the job and stream cells.
    if (job.events.on_accepted) job.events.on_accepted(job.cells);
    // Copied out first: push() takes the job by value, and the move that
    // initializes that parameter may gut job.client before a reference
    // to it would be read (argument evaluation order is unspecified).
    const ServiceLane lane = job.lane;
    const std::string client_key = job.client;
    const std::size_t cost = job.cells;
    sched_.push(lane, client_key, cost, std::move(job));
  }
  work_cv_.notify_all();
  outcome.accepted = true;
  return outcome;
}

ServiceLane RequestBroker::route(const ServiceRequest& request,
                                 std::size_t cells) const noexcept {
  if (request.priority == RequestPriority::Interactive)
    return ServiceLane::Interactive;
  if (request.priority == RequestPriority::Bulk) return ServiceLane::Bulk;
  return cells <= options_.interactive_cell_threshold
             ? ServiceLane::Interactive
             : ServiceLane::Bulk;
}

EvaluationAnswer RequestBroker::evaluate(const EvaluateRequest& request) {
  require(!request.spec.workloads.empty() &&
              !request.spec.topologies.empty() && !request.spec.goals.empty(),
          "evaluate: the spec needs at least one workload, topology and "
          "goal");
  const SweepCell cell{};
  const auto key = ProblemCache::key_of(request.spec, cell);
  const auto problem = cache_.problem(request.spec, cell, key);
  require(request.assignment.size() == problem->task_count(),
          "evaluate: the assignment maps " +
              std::to_string(request.assignment.size()) +
              " task(s), the workload has " +
              std::to_string(problem->task_count()));
  const auto mapping =
      Mapping::from_assignment(request.assignment, problem->tile_count());
  auto lease = cache_.checkout(key, ServiceLane::Interactive, *problem,
                               kEvaluateAffinity);
  Evaluator& evaluator = *lease.evaluator;
  const MemoCounts before(evaluator);
  EvaluationAnswer answer;
  answer.fitness = evaluator.evaluate(mapping);
  const auto raw = evaluator.evaluate_raw(mapping);
  answer.snr_db = raw.worst_snr_db;
  answer.loss_db = raw.worst_loss_db;
  metrics_->count_memo(evaluator, before);
  cache_.checkin(key, ServiceLane::Interactive, std::move(lease),
                 kEvaluateAffinity);
  metrics_->single_evaluations.inc();
  return answer;
}

void RequestBroker::count_connection() noexcept {
  metrics_->connections.inc();
}

void RequestBroker::count_rejection(RejectKind kind, const std::string& id) {
  metrics_->rejections(kind).inc();
  obs::trace_instant("service", "shed", {"id", std::string_view(id)},
                     {"kind", reject_kind_token(kind)});
}

void RequestBroker::sample_gauges() const {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    metrics_->queue_depth.set(static_cast<double>(sched_.size()));
    metrics_->queue_depth_interactive.set(
        static_cast<double>(sched_.size(ServiceLane::Interactive)));
    metrics_->queue_depth_bulk.set(
        static_cast<double>(sched_.size(ServiceLane::Bulk)));
    metrics_->in_flight_cells.set(static_cast<double>(running_cells_left_));
    metrics_->in_flight_requests.set(static_cast<double>(running_jobs_));
  }
  metrics_->uptime_seconds.set(uptime_.elapsed_seconds());
}

std::vector<std::pair<std::string, double>> RequestBroker::stats() const {
  sample_gauges();
  auto lines = registry_.scalar_values();
  for (auto& line : lines) line.first.erase(0, kMetricPrefix.size());
  const Metrics& m = *metrics_;
  lines.emplace_back("wall_p50_seconds", m.wall.quantile(0.5));
  lines.emplace_back("wall_p90_seconds", m.wall.quantile(0.9));
  lines.emplace_back("wall_p99_seconds", m.wall.quantile(0.99));
  lines.emplace_back("wall_max_seconds", m.wall.max());
  lines.emplace_back("wall_mean_seconds", m.wall.mean());
  lines.emplace_back("wait_interactive_p50_seconds",
                     m.wait_interactive.quantile(0.5));
  lines.emplace_back("wait_interactive_p99_seconds",
                     m.wait_interactive.quantile(0.99));
  lines.emplace_back("wait_bulk_p50_seconds", m.wait_bulk.quantile(0.5));
  lines.emplace_back("wait_bulk_p99_seconds", m.wait_bulk.quantile(0.99));
  return lines;
}

double RequestBroker::stat(std::string_view name) const {
  for (const auto& [line, value] : stats())
    if (line == name) return value;
  throw InvalidArgument("no stats line named '" + std::string(name) + "'");
}

std::string RequestBroker::scrape(StatsFormat format) {
  metrics_->stats_requests.inc();
  if (format == StatsFormat::Prometheus) {
    sample_gauges();
    return registry_.render_prometheus() +
           obs::MetricsRegistry::global().render_prometheus();
  }
  std::string text;
  for (const auto& [name, value] : stats())
    text += name + ' ' + format_double(value) + '\n';
  return text;
}

void RequestBroker::pause() {
  const std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void RequestBroker::resume() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void RequestBroker::worker_loop() {
  for (;;) {
    Job job;
    bool overtook = false;
    double waited = 0.0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock,
                    [&] { return stop_ || (!paused_ && !sched_.empty()); });
      if (stop_) return;
      auto picked = sched_.pop();  // non-empty: checked under this lock
      job = std::move(*picked);
      // Fairness accounting: an interactive pick that leaves bulk work
      // behind in the queue jumped the line by design.
      overtook = job.lane == ServiceLane::Interactive &&
                 sched_.size(ServiceLane::Bulk) > 0;
      waited = job.queued.elapsed_seconds();
      queued_cells_ -= job.cells;
      job.cells_left = job.cells;
      running_cells_left_ += job.cells;
      ++running_jobs_;
    }
    (job.lane == ServiceLane::Interactive ? metrics_->wait_interactive
                                          : metrics_->wait_bulk)
        .observe(waited);
    if (overtook) metrics_->interactive_overtakes.inc();
    execute(job);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      // Release whatever the job still holds of the in-flight sum: zero
      // after a full run, the whole grid for a deadline-shed or
      // canceled job.
      running_cells_left_ -= std::min(job.cells_left, running_cells_left_);
      job.cells_left = 0;
      --running_jobs_;
    }
  }
}

void RequestBroker::execute(Job& job) {
  obs::TraceSpan span("service", "execute");
  span.arg({"id", std::string_view(job.request.id)});
  span.arg({"cells", std::uint64_t(job.cells)});
  const double deadline = job.request.deadline_seconds;
  const double waited = job.queued.elapsed_seconds();
  if (deadline > 0.0 && waited > deadline) {
    // Shed stale work instead of running it: the client stopped caring
    // `waited - deadline` seconds ago.
    count_rejection(RejectKind::Deadline, job.request.id);
    if (job.events.on_reject)
      job.events.on_reject(RejectKind::Deadline,
                           "deadline of " + format_double(deadline) +
                               "s passed after " + format_double(waited) +
                               "s in the queue");
    return;
  }
  if (job.events.alive && !job.events.alive()) {
    metrics_->requests_canceled.inc();
    if (job.events.on_done) job.events.on_done(0, 0);
    return;
  }
  const Timer wall;
  bool canceled = false;
  std::size_t ok = 0;
  std::size_t failed = 0;
  try {
    run_job(job, canceled, ok, failed);
  } catch (const std::exception& e) {
    // Request-level failure (problem construction, a dead backend):
    // answer it; the daemon and the other requests keep going.
    log_warning("service") << "service broker: request '" << job.request.id
                           << "' failed: " << e.what();
    count_rejection(RejectKind::Internal, job.request.id);
    if (job.events.on_reject)
      job.events.on_reject(RejectKind::Internal, e.what());
    return;
  }
  if (canceled) {
    metrics_->requests_canceled.inc();
  } else {
    metrics_->requests_completed.inc();
    metrics_->wall.observe(wall.elapsed_seconds());
  }
  // on_done fires either way — for a vanished client the send simply
  // fails — so the connection's job accounting always balances.
  if (job.events.on_done) job.events.on_done(ok, failed);
}

void RequestBroker::run_job(Job& job, bool& canceled, std::size_t& ok,
                            std::size_t& failed) {
  // One stream for both executors, called once per settled cell and
  // never concurrently (run_cells and Scheduler::run both serialize it).
  const auto stream = [&](const CellResult& result) {
    if (!canceled) {
      if (result.status == CellStatus::Ok) {
        ++ok;
        metrics_->cells_ok.inc();
      } else {
        ++failed;
        metrics_->cells_failed.inc();
      }
      if (job.events.on_cell && !job.events.on_cell(result)) canceled = true;
    }
    finish_cell(job);
    return !canceled;
  };
  const auto& spec = job.request.spec;
  if (!options_.fleet.empty()) {
    // Cells run in other processes (no cross-request cache there) and
    // stream as the fleet settles them.
    SchedulerOptions fleet;
    fleet.hosts = options_.fleet;
    (void)Scheduler(std::move(fleet)).run(spec, stream);
    return;
  }
  const auto cells = expand(spec);
  // Problems come from the cross-request cache, built here before the
  // fan-out (construction is the expensive part; cells only read them).
  const auto problems = cache_.problems(spec, cells);
  run_cells(
      spec, cells, pool_.get(),
      [&](const SweepCell& cell) {
        // A warm Evaluator of the job's lane. A throwing cell unwinds
        // past the check-in: its Evaluator is dropped, not reused.
        obs::TraceSpan span("service", "cell");
        span.arg({"index", std::uint64_t(cell.index)});
        const auto& [key, problem] =
            problems.at({cell.workload, cell.topology, cell.goal});
        const std::uint64_t affinity = search_affinity(spec, cell);
        auto lease = cache_.checkout(key, job.lane, *problem, affinity);
        const MemoCounts before(*lease.evaluator);
        CellResult result = run_sweep_cell(spec, cell, *lease.evaluator);
        metrics_->count_memo(*lease.evaluator, before);
        cache_.checkin(key, job.lane, std::move(lease), affinity);
        return result;
      },
      stream);
}

void RequestBroker::finish_cell(Job& job) {
  // Both the job-local and the global remainder shrink together, so the
  // in-flight sum stays a true per-job total under any concurrency.
  const std::lock_guard<std::mutex> lock(mutex_);
  if (job.cells_left > 0) {
    --job.cells_left;
    if (running_cells_left_ > 0) --running_cells_left_;
  }
}

}  // namespace phonoc
