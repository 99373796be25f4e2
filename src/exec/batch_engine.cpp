#include "exec/batch_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <mutex>
#include <utility>

#include "core/evaluator.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace phonoc {

std::map<SweepProblemKey, std::shared_ptr<const MappingProblem>>
build_sweep_problems(const SweepSpec& spec,
                     const std::vector<SweepCell>& cells) {
  std::map<SweepProblemKey, std::shared_ptr<const MappingProblem>> problems;
  for (auto& [coordinate, entry] : ProblemCache().problems(spec, cells))
    problems.emplace(coordinate, std::move(entry.problem));
  return problems;
}

void DistributionResult::merge(const DistributionResult& other) {
  require(metrics.size() == other.metrics.size(),
          "DistributionResult::merge: metric count mismatch");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    require(metrics[i].metric == other.metrics[i].metric,
            "DistributionResult::merge: metric name mismatch ('" +
                metrics[i].metric + "' vs '" + other.metrics[i].metric +
                "')");
    metrics[i].histogram.merge(other.metrics[i].histogram);
    metrics[i].stats.merge(other.metrics[i].stats);
  }
  samples += other.samples;
}

const MetricDistribution* DistributionResult::find(
    const std::string& metric) const noexcept {
  for (const auto& m : metrics)
    if (m.metric == metric) return &m;
  return nullptr;
}

DistributionResult merge_cell_distributions(
    const std::vector<CellResult>& results, std::size_t first,
    std::size_t count) {
  require(count > 0 && first + count <= results.size(),
          "merge_cell_distributions: cell range out of bounds");
  for (std::size_t i = 0; i < count; ++i)
    if (results[first + i].status != CellStatus::Ok)
      throw ExecError("merge_cell_distributions: cell " +
                      std::to_string(results[first + i].cell.index) +
                      " failed (" + results[first + i].error +
                      "); a partial merge would misstate the distribution");
  DistributionResult merged = results[first].distribution;
  for (std::size_t i = 1; i < count; ++i)
    merged.merge(results[first + i].distribution);
  return merged;
}

namespace {

/// NaN-of-the-same-sign counts as equal; everything else is bitwise ==.
bool same_double(double a, double b) {
  if (std::isnan(a) || std::isnan(b))
    return std::isnan(a) && std::isnan(b) &&
           std::signbit(a) == std::signbit(b);
  return a == b;
}

}  // namespace

bool identical_distributions(const DistributionResult& a,
                             const DistributionResult& b) {
  if (a.samples != b.samples || a.metrics.size() != b.metrics.size())
    return false;
  for (std::size_t m = 0; m < a.metrics.size(); ++m) {
    const auto& x = a.metrics[m];
    const auto& y = b.metrics[m];
    if (x.metric != y.metric) return false;
    const auto& hx = x.histogram;
    const auto& hy = y.histogram;
    if (hx.bins() != hy.bins() || !same_double(hx.lo(), hy.lo()) ||
        !same_double(hx.hi(), hy.hi()) || hx.underflow() != hy.underflow() ||
        hx.overflow() != hy.overflow() || hx.total() != hy.total())
      return false;
    for (std::size_t i = 0; i < hx.bins(); ++i)
      if (hx.count(i) != hy.count(i)) return false;
    if (x.stats.count() != y.stats.count() ||
        !same_double(x.stats.mean(), y.stats.mean()) ||
        !same_double(x.stats.sum_squared_deviations(),
                     y.stats.sum_squared_deviations()) ||
        !same_double(x.stats.min(), y.stats.min()) ||
        !same_double(x.stats.max(), y.stats.max()))
      return false;
  }
  return true;
}

namespace {

/// The Sample-kind cell body: samples_per_cell uniform random mappings
/// on the cell's problem, RNG seeded from the cell's seed value alone
/// (exactly the Optimize kind's seeding rule, so the determinism
/// contract carries over unchanged). Mappings are generated and scored
/// in fixed-size chunks through the batched SoA kernel
/// (`evaluate_raw_batch`): generation consumes RNG and scoring does
/// not, and each chunk's metrics are folded into the distributions in
/// sample order, so every histogram bin and running statistic is
/// bit-identical to the per-sample `evaluate_raw` loop this replaces —
/// the per-sample O(tiles) validation now happens once, inside
/// `Mapping::random`'s invariant.
CellResult run_sample_cell(const SweepSpec& spec, const SweepCell& cell,
                           const Evaluator& evaluator) {
  Timer timer;
  CellResult result;
  result.cell = cell;
  result.seed = spec.seeds[cell.seed];

  const auto& s = spec.sampling;
  result.distribution.metrics = {
      {"snr_db", Histogram(s.snr_lo_db, s.snr_hi_db, s.snr_bins), {}},
      {"loss_db", Histogram(s.loss_lo_db, s.loss_hi_db, s.loss_bins), {}}};
  auto& snr = result.distribution.metrics[0];
  auto& loss = result.distribution.metrics[1];

  const MappingProblem& problem = evaluator.problem();
  Rng rng(result.seed);
  constexpr std::uint64_t kChunk = 512;
  std::vector<Mapping> mappings;
  std::vector<BatchPoint> points;
  for (std::uint64_t start = 0; start < s.samples_per_cell; start += kChunk) {
    const auto n = static_cast<std::size_t>(
        std::min(kChunk, s.samples_per_cell - start));
    mappings.clear();
    mappings.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      mappings.push_back(
          Mapping::random(problem.task_count(), problem.tile_count(), rng));
    points.resize(n);
    evaluator.evaluate_raw_batch(mappings, points);
    for (std::size_t i = 0; i < n; ++i) {
      snr.histogram.add(points[i].worst_snr_db);
      snr.stats.add(points[i].worst_snr_db);
      loss.histogram.add(points[i].worst_loss_db);
      loss.stats.add(points[i].worst_loss_db);
    }
  }
  result.distribution.samples = s.samples_per_cell;
  result.seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace

CellResult run_sweep_cell(const SweepSpec& spec, const SweepCell& cell,
                          const MappingProblem& problem,
                          const EvaluatorOptions& evaluator) {
  Evaluator fresh(problem, evaluator);
  return run_sweep_cell(spec, cell, fresh);
}

CellResult run_sweep_cell(const SweepSpec& spec, const SweepCell& cell,
                          Evaluator& evaluator) {
  obs::TraceSpan span("exec", "cell");
  span.arg({"index", std::uint64_t(cell.index)});
  span.arg({"kind", std::string_view(spec.task_kind == SweepTaskKind::Sample
                                         ? "sample"
                                         : "optimize")});
  if (spec.task_kind == SweepTaskKind::Sample)
    return run_sample_cell(spec, cell, evaluator);
  Timer timer;
  CellResult result;
  result.cell = cell;
  result.seed = spec.seeds[cell.seed];
  result.run = Engine(evaluator.problem(), evaluator.options())
                   .run_with(evaluator, spec.optimizers[cell.optimizer],
                             spec.budgets[cell.budget], result.seed);
  result.seconds = timer.elapsed_seconds();
  return result;
}

CellResult make_failed_cell(const SweepSpec& spec, const SweepCell& cell,
                            std::string error) {
  obs::trace_instant("exec", "cell_failed",
                     {"index", std::uint64_t(cell.index)});
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "phonoc_exec_cells_failed_total",
      "Sweep cells that failed and were materialized as failed results.");
  counter.inc();
  CellResult failed;
  failed.cell = cell;
  failed.seed = spec.seeds[cell.seed];
  failed.status = CellStatus::Failed;
  failed.error = std::move(error);
  return failed;
}

void run_cells(const SweepSpec& spec, std::span<const SweepCell> cells,
               ThreadPool* pool, const CellBody& body,
               const CellSink& on_cell) {
  const auto settle = [&](const SweepCell& cell) {
    try {
      return body(cell);
    } catch (const std::exception& e) {
      return make_failed_cell(spec, cell, e.what());
    }
  };
  if (!pool || cells.size() <= 1) {
    for (const auto& cell : cells)
      if (!on_cell(settle(cell))) break;
    return;
  }
  std::mutex sink;  // serializes on_cell
  std::atomic<bool> skip{false};
  std::vector<std::future<void>> settled;
  settled.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    settled.push_back(pool->submit([&, i] {
      if (skip.load(std::memory_order_relaxed)) return;
      CellResult result = settle(cells[i]);
      const std::lock_guard<std::mutex> lock(sink);
      if (!on_cell(std::move(result))) skip.store(true);
    }));
  // Every future is collected before anything can unwind the stack the
  // queued tasks point into; the first exception out of on_cell is
  // rethrown only after the rest has drained.
  std::exception_ptr failure;
  for (auto& cell : settled) {
    try {
      cell.get();
    } catch (...) {
      skip.store(true);
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
}

BatchEngine::BatchEngine(BatchOptions options)
    : workers_(options.workers == 0 ? ThreadPool::default_worker_count()
                                    : options.workers),
      options_(std::move(options)) {
  require(workers_ <= ThreadPool::kMaxWorkers,
          "BatchEngine: worker count " + std::to_string(workers_) +
              " exceeds the sanity limit of " +
              std::to_string(ThreadPool::kMaxWorkers));
  // Wall-clock-fair mode: one in-flight cell per hardware thread, so
  // max_seconds budgets are not stretched by oversubscription.
  if (options_.pin_one_cell_per_thread)
    workers_ = std::min(workers_, ThreadPool::default_worker_count());
}

std::vector<CellResult> BatchEngine::run(const SweepSpec& spec) const {
  obs::TraceSpan span("exec", "batch_run");
  span.arg({"backend",
            std::string_view(options_.backend == BatchBackend::Remote
                                 ? "remote"
                                 : "in_process")});
  span.arg({"cells", std::uint64_t(cell_count(spec))});
  static obs::Counter& sweeps = obs::MetricsRegistry::global().counter(
      "phonoc_exec_sweeps_total", "Batch sweeps run, by backend.",
      {{"backend", "in_process"}});

  if (options_.backend == BatchBackend::Remote)
    return run_remote(spec, options_);
  sweeps.inc();

  const auto cells = expand(spec);
  const auto problems = build_sweep_problems(spec, cells);
  std::vector<CellResult> results(cells.size());
  std::unique_ptr<ThreadPool> pool;
  if (workers_ > 1 && cells.size() > 1)
    pool = std::make_unique<ThreadPool>(std::min(workers_, cells.size()));
  // Each cell owns its Evaluator (and through it its kernels and memo)
  // and RNG and writes only its slot: the outcome cannot depend on
  // scheduling.
  run_cells(
      spec, cells, pool.get(),
      [&](const SweepCell& cell) {
        return run_sweep_cell(
            spec, cell,
            *problems.at({cell.workload, cell.topology, cell.goal}),
            options_.evaluator);
      },
      [&](CellResult result) {
        results[result.cell.index] = std::move(result);
        return true;
      });
  return results;
}

}  // namespace phonoc
