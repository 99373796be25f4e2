// Tests of the parallel batch-exploration subsystem: thread pool
// semantics, the one cell loop (run_cells: stop and drain rules),
// sweep grid expansion, aggregation, shard serialization
// (including seeded byte mutations the parsers must refuse cleanly),
// crash-isolated local worker processes (spawn hosts: bit-identity,
// poison-cell quarantine, no process left behind), and — the
// load-bearing property — bit-identical results across worker counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <set>
#include <sstream>

#include <sys/wait.h>

#include "core/engine.hpp"
#include "exec/aggregate.hpp"
#include "exec/batch_engine.hpp"
#include "exec/serialize.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "mutate.hpp"
#include "oracle.hpp"
#include "sched/journal.hpp"
#include "sched/scheduler.hpp"
#include "service/protocol.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workloads/generator.hpp"

#ifndef PHONOC_WORKER_PATH
#define PHONOC_WORKER_PATH "phonoc_workerd"
#endif

namespace phonoc {
namespace {

// --- thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, ExceptionsTravelThroughTheFuture) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw InvalidArgument("boom"); });
  EXPECT_THROW((void)future.get(), InvalidArgument);
}

TEST(ThreadPool, GracefulShutdownDrainsTheQueue) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i)
      (void)pool.submit([&executed] { ++executed; });
  }  // destructor: every submitted task still runs
  EXPECT_EQ(executed.load(), 200);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW((void)pool.submit([] { return 1; }), ExecError);
}

// --- sweep grid expansion --------------------------------------------------

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.add_workload("w0", pipeline_cg(4))
      .add_workload("w1", pipeline_cg(6))
      .add_topology(TopologyKind::Mesh)
      .add_topology(TopologyKind::Torus, 3)
      .add_goal(OptimizationGoal::InsertionLoss)
      .add_optimizers({"rs", "rpbla"})
      .add_budget(50)
      .add_seed_range(1, 3);
  return spec;
}

TEST(SweepExpansion, EmptyDimensionMeansEmptyGrid) {
  SweepSpec spec = tiny_spec();
  spec.optimizers.clear();
  EXPECT_EQ(cell_count(spec), 0u);
  EXPECT_TRUE(expand(spec).empty());
  EXPECT_TRUE(BatchEngine({.workers = 2}).run(spec).empty());
}

TEST(SweepExpansion, SingleCellGrid) {
  SweepSpec spec;
  spec.add_workload("w", pipeline_cg(4))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizer("rs")
      .add_budget(10)
      .add_seed(7);
  EXPECT_EQ(cell_count(spec), 1u);
  const auto cells = expand(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].index, 0u);
  EXPECT_EQ(spec.seeds[cells[0].seed], 7u);
}

TEST(SweepExpansion, CartesianCountAndRowMajorOrder) {
  const auto spec = tiny_spec();
  EXPECT_EQ(cell_count(spec), 2u * 2u * 1u * 2u * 1u * 3u);
  const auto cells = expand(spec);
  ASSERT_EQ(cells.size(), cell_count(spec));
  std::set<std::size_t> indices;
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.index, grid_index(spec, cell.workload, cell.topology,
                                     cell.goal, cell.optimizer, cell.budget,
                                     cell.seed));
    indices.insert(cell.index);
  }
  EXPECT_EQ(indices.size(), cells.size());  // a bijection onto 0..N-1
  EXPECT_EQ(*indices.begin(), 0u);
  EXPECT_EQ(*indices.rbegin(), cells.size() - 1);
  // The seed is the innermost (fastest-varying) dimension.
  EXPECT_EQ(cells[0].seed, 0u);
  EXPECT_EQ(cells[1].seed, 1u);
  EXPECT_EQ(cells[2].seed, 2u);
  EXPECT_EQ(cells[3].seed, 0u);
  EXPECT_EQ(cells[3].optimizer, 1u);
  // The workload is outermost.
  EXPECT_EQ(cells.front().workload, 0u);
  EXPECT_EQ(cells.back().workload, 1u);
}

TEST(SweepExpansion, GridIndexRejectsOutOfRangeCoordinates) {
  const auto spec = tiny_spec();
  EXPECT_THROW((void)grid_index(spec, 2, 0, 0, 0, 0, 0), InvalidArgument);
  EXPECT_THROW((void)grid_index(spec, 0, 0, 1, 0, 0, 0), InvalidArgument);
}

TEST(SweepExpansion, AutoSideFitsTheWorkload) {
  const auto spec = tiny_spec();
  // w0 has 4 tasks -> 2x2; w1 has 6 tasks -> 3x3; explicit side wins.
  EXPECT_EQ(resolved_side(spec, 0, 0), 2u);
  EXPECT_EQ(resolved_side(spec, 1, 0), 3u);
  EXPECT_EQ(resolved_side(spec, 0, 1), 3u);
  const auto problem = make_problem(spec, expand(spec)[0]);
  EXPECT_EQ(problem.tile_count(), 4u);
  EXPECT_EQ(problem.task_count(), 4u);
}

// --- aggregation -----------------------------------------------------------

TEST(Aggregate, CollapsesSeedsIntoOneCell) {
  const auto spec = tiny_spec();
  const auto results = BatchEngine({.workers = 1}).run(spec);
  const auto report = SweepReport::build(spec, results);
  // Seed dimension (3 values) collapsed: 24 runs -> 8 aggregate cells.
  EXPECT_EQ(report.run_count, results.size());
  EXPECT_EQ(report.cells.size(), results.size() / spec.seeds.size());
  for (const auto& cell : report.cells) {
    EXPECT_EQ(cell.best_fitness.count(), spec.seeds.size());
    EXPECT_GE(cell.best_fitness.max(), cell.best_fitness.mean());
    EXPECT_LE(cell.worst_loss_db.max(), 0.0);  // loss in dB is <= 0
    EXPECT_EQ(cell.evaluations.mean(), 50.0);  // budget is exact for rs
  }
  EXPECT_EQ(report.to_table().row_count(), report.cells.size());
}

TEST(Aggregate, AddRejectsForeignCellsAndCsvHasHeaderAndRows) {
  const auto spec = tiny_spec();
  const auto results = BatchEngine({.workers = 1}).run(spec);
  auto report = SweepReport::build(spec, results);
  AggregateCell& cell = report.cells.front();
  CellResult foreign = results.back();
  EXPECT_THROW(cell.add(foreign), InvalidArgument);
  std::ostringstream csv;
  report.write_csv(csv);
  std::size_t lines = 0;
  std::string line;
  std::istringstream in(csv.str());
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1 + report.cells.size());
}

// --- wire-format round trips -----------------------------------------------

SweepSpec wire_spec() {
  SweepSpec spec;
  // A workload name with a space and the comment character: both must
  // round-trip verbatim (the name is the rest of the directive line).
  spec.add_workload("p4 #1", pipeline_cg(4))
      .add_workload("r6", random_cg({.tasks = 6,
                                     .avg_out_degree = 1.5,
                                     .min_bandwidth = 8,
                                     .max_bandwidth = 128,
                                     .seed = 11,
                                     .acyclic = false}))
      .add_topology(TopologyKind::Mesh)
      .add_topology(TopologyKind::Torus, 3)
      .add_goal(OptimizationGoal::Snr)
      .add_goal(OptimizationGoal::InsertionLoss)
      .add_optimizers({"rs", "rpbla"})
      .add_budget(40)
      .add_budget(60, 0.125)
      .add_seed(3)
      .add_seed(21);
  spec.tile_pitch_mm = 2.2501;
  spec.parameters.crossing_loss_db = -0.0431;
  spec.parameters.pse_on_crosstalk_db = -24.7;
  spec.model_options.fidelity = ModelFidelity::Full;
  spec.model_options.conflict_policy = ConflictPolicy::Ignore;
  spec.model_options.snr_ceiling_db = 180.25;
  return spec;
}

TEST(Serialize, ShardRoundTripsEveryField) {
  SweepShard shard;
  shard.spec = wire_spec();
  shard.begin = 7;
  shard.end = 23;
  std::ostringstream out;
  write_shard(out, shard);
  std::istringstream in(out.str());
  const auto parsed = read_shard(in);

  EXPECT_EQ(parsed.begin, 7u);
  EXPECT_EQ(parsed.end, 23u);
  // Shard v2 opens with its magic and carries no `evaluator` line.
  EXPECT_EQ(out.str().rfind("phonoc-shard v2\n", 0), 0u);
  EXPECT_EQ(out.str().find("\nevaluator "), std::string::npos);
  const auto& a = shard.spec;
  const auto& b = parsed.spec;
  EXPECT_EQ(b.router, a.router);
  EXPECT_EQ(b.tile_pitch_mm, a.tile_pitch_mm);  // bitwise
  EXPECT_EQ(b.parameters.crossing_loss_db, a.parameters.crossing_loss_db);
  EXPECT_EQ(b.parameters.pse_on_crosstalk_db,
            a.parameters.pse_on_crosstalk_db);
  EXPECT_EQ(b.parameters.propagation_loss_db_per_cm,
            a.parameters.propagation_loss_db_per_cm);
  EXPECT_EQ(b.model_options.fidelity, a.model_options.fidelity);
  EXPECT_EQ(b.model_options.conflict_policy, a.model_options.conflict_policy);
  EXPECT_EQ(b.model_options.snr_ceiling_db, a.model_options.snr_ceiling_db);
  ASSERT_EQ(b.goals, a.goals);
  ASSERT_EQ(b.optimizers, a.optimizers);
  ASSERT_EQ(b.seeds, a.seeds);
  ASSERT_EQ(b.budgets.size(), a.budgets.size());
  for (std::size_t i = 0; i < a.budgets.size(); ++i) {
    EXPECT_EQ(b.budgets[i].max_evaluations, a.budgets[i].max_evaluations);
    EXPECT_EQ(b.budgets[i].max_seconds, a.budgets[i].max_seconds);
  }
  ASSERT_EQ(b.topologies.size(), a.topologies.size());
  for (std::size_t i = 0; i < a.topologies.size(); ++i) {
    EXPECT_EQ(b.topologies[i].kind, a.topologies[i].kind);
    EXPECT_EQ(b.topologies[i].side, a.topologies[i].side);
  }
  ASSERT_EQ(b.workloads.size(), a.workloads.size());
  for (std::size_t i = 0; i < a.workloads.size(); ++i) {
    EXPECT_EQ(b.workloads[i].name, a.workloads[i].name);
    ASSERT_EQ(b.workloads[i].cg.task_count(), a.workloads[i].cg.task_count());
    const auto ea = a.workloads[i].cg.edges();
    const auto eb = b.workloads[i].cg.edges();
    ASSERT_EQ(eb.size(), ea.size());
    for (std::size_t e = 0; e < ea.size(); ++e) {
      EXPECT_EQ(eb[e].src, ea[e].src);
      EXPECT_EQ(eb[e].dst, ea[e].dst);
      EXPECT_EQ(eb[e].bandwidth_mbps, ea[e].bandwidth_mbps);  // bitwise
    }
  }
  // The grid the receiver expands is the same grid.
  EXPECT_EQ(cell_count(b), cell_count(a));
}

TEST(Serialize, CellResultRoundTripsBitForBit) {
  SweepSpec spec;
  spec.add_workload("w", pipeline_cg(4))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizer("rpbla")
      .add_budget(60)
      .add_seed(5);
  const auto results = BatchEngine({.workers = 1}).run(spec);
  ASSERT_EQ(results.size(), 1u);

  std::ostringstream out;
  write_cell_result(out, results[0]);
  std::istringstream in(out.str());
  const auto parsed = read_cell_result(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, CellStatus::Ok);
  EXPECT_EQ(parsed->cell.index, results[0].cell.index);
  EXPECT_EQ(parsed->seed, results[0].seed);
  EXPECT_EQ(parsed->seconds, results[0].seconds);  // bitwise
  EXPECT_EQ(parsed->run.algorithm, results[0].run.algorithm);
  EXPECT_TRUE(parsed->run.search.best == results[0].run.search.best);
  EXPECT_EQ(parsed->run.search.best_fitness,
            results[0].run.search.best_fitness);
  EXPECT_EQ(parsed->run.search.evaluations, results[0].run.search.evaluations);
  ASSERT_EQ(parsed->run.search.trace.size(),
            results[0].run.search.trace.size());
  for (std::size_t i = 0; i < parsed->run.search.trace.size(); ++i) {
    EXPECT_EQ(parsed->run.search.trace[i].evaluation,
              results[0].run.search.trace[i].evaluation);
    EXPECT_EQ(parsed->run.search.trace[i].fitness,
              results[0].run.search.trace[i].fitness);
  }
  ASSERT_EQ(parsed->run.best_evaluation.edges.size(),
            results[0].run.best_evaluation.edges.size());
  for (std::size_t i = 0; i < parsed->run.best_evaluation.edges.size(); ++i) {
    const auto& pe = parsed->run.best_evaluation.edges[i];
    const auto& re = results[0].run.best_evaluation.edges[i];
    EXPECT_EQ(pe.edge, re.edge);
    EXPECT_EQ(pe.src_tile, re.src_tile);
    EXPECT_EQ(pe.dst_tile, re.dst_tile);
    EXPECT_EQ(pe.loss_db, re.loss_db);
    EXPECT_EQ(pe.signal_gain, re.signal_gain);
    EXPECT_EQ(pe.noise_gain, re.noise_gain);
    EXPECT_EQ(pe.snr_db, re.snr_db);
  }

  // End of stream is a clean nullopt, not an error.
  EXPECT_FALSE(read_cell_result(in).has_value());
}

TEST(Serialize, FailedCellRoundTripsAndTornBlocksThrow) {
  CellResult failed;
  failed.cell = {.index = 42, .workload = 1, .topology = 0, .goal = 1,
                 .optimizer = 0, .budget = 1, .seed = 1};
  failed.seed = 21;
  failed.status = CellStatus::Failed;
  // '#' is the wire format's comment character: free-text payloads must
  // survive it anyway.
  failed.error = "worker killed by signal 6 (Aborted) #core dumped";
  std::ostringstream out;
  write_cell_result(out, failed);
  std::istringstream in(out.str());
  const auto parsed = read_cell_result(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, CellStatus::Failed);
  EXPECT_EQ(parsed->cell.index, 42u);
  EXPECT_EQ(parsed->seed, 21u);
  EXPECT_EQ(parsed->error, failed.error);

  // A block truncated mid-write (as a crashing worker leaves behind)
  // throws ParseError instead of yielding a half-filled result.
  const auto text = out.str();
  std::istringstream torn(text.substr(0, text.size() / 2));
  EXPECT_THROW((void)read_cell_result(torn), ParseError);
}

TEST(Serialize, NonFiniteDoublesRoundTripThroughTheWireFormat) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  // The primitive first: canonical tokens in, value + sign bit out.
  for (const double value : {nan, -nan, inf, -inf}) {
    const auto parsed = parse_double(format_double(value));
    EXPECT_EQ(std::isnan(parsed), std::isnan(value));
    EXPECT_EQ(std::isinf(parsed), std::isinf(value));
    EXPECT_EQ(std::signbit(parsed), std::signbit(value));
  }

  // Non-finite metrics in a cell result (an SNR can legitimately reach
  // +inf when a mapping sees zero noise).
  SweepSpec spec;
  spec.add_workload("w", pipeline_cg(4))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizer("rs")
      .add_budget(20)
      .add_seed(5);
  auto results = BatchEngine({.workers = 1}).run(spec);
  ASSERT_EQ(results.size(), 1u);
  results[0].run.best_evaluation.worst_snr_db = inf;
  results[0].run.search.best_fitness = -inf;
  ASSERT_FALSE(results[0].run.best_evaluation.edges.empty());
  results[0].run.best_evaluation.edges[0].loss_db = nan;
  results[0].run.best_evaluation.edges[0].noise_gain = -inf;
  std::ostringstream cell_out;
  write_cell_result(cell_out, results[0]);
  std::istringstream cell_in(cell_out.str());
  const auto cell = read_cell_result(cell_in);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->run.best_evaluation.worst_snr_db, inf);
  EXPECT_EQ(cell->run.search.best_fitness, -inf);
  EXPECT_TRUE(std::isnan(cell->run.best_evaluation.edges[0].loss_db));
  EXPECT_EQ(cell->run.best_evaluation.edges[0].noise_gain, -inf);

  // Non-finite physical parameters in a shard (e.g. an "infinite"
  // crosstalk suppression sentinel).
  SweepShard shard;
  shard.spec = spec;
  shard.spec.parameters.crossing_crosstalk_db = -inf;
  shard.spec.parameters.pse_off_crosstalk_db = nan;
  shard.end = 1;
  std::ostringstream shard_out;
  write_shard(shard_out, shard);
  std::istringstream shard_in(shard_out.str());
  const auto parsed = read_shard(shard_in);
  EXPECT_EQ(parsed.spec.parameters.crossing_crosstalk_db, -inf);
  EXPECT_TRUE(std::isnan(parsed.spec.parameters.pse_off_crosstalk_db));
}

// --- wall-clock-fair mode ---------------------------------------------------

void expect_identical(const RunResult& a, const RunResult& b);

TEST(BatchEngine, PinOneCellPerThreadCapsTheWorkerCount) {
  const auto hardware = ThreadPool::default_worker_count();
  // A grossly oversubscribed request is clamped to the hardware
  // threads, so at most one cell is in flight per thread and
  // max_seconds budgets stay comparable.
  const BatchEngine pinned({.workers = ThreadPool::kMaxWorkers,
                            .pin_one_cell_per_thread = true});
  EXPECT_EQ(pinned.worker_count(), hardware);
  // Undersubscribed requests are untouched, and the flag changes no
  // results: a pinned run is bit-identical to the default (the
  // determinism contract is worker-count independent).
  const BatchEngine modest({.workers = 1, .pin_one_cell_per_thread = true});
  EXPECT_EQ(modest.worker_count(), 1u);
  const auto spec = tiny_spec();
  const auto reference = BatchEngine({.workers = 2}).run(spec);
  const auto pinned_results =
      BatchEngine({.pin_one_cell_per_thread = true}).run(spec);
  ASSERT_EQ(pinned_results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_identical(pinned_results[i].run, reference[i].run);
}

// --- the one cell loop ------------------------------------------------------

/// A stub cell body: no optimizer runs, cell 1 throws.
CellResult stub_cell(const SweepCell& cell) {
  if (cell.index == 1) throw InvalidArgument("stub failure");
  CellResult result;
  result.cell = cell;
  return result;
}

TEST(RunCells, AFalseOnCellLeavesTheRestUnstartedInlineAndPooled) {
  const auto spec = tiny_spec();
  const auto cells = expand(spec);
  ThreadPool pool(2);
  for (ThreadPool* runner : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::atomic<std::size_t> ran{0};
    std::vector<CellResult> seen;
    run_cells(
        spec, cells, runner,
        [&](const SweepCell& cell) {
          ++ran;
          return stub_cell(cell);
        },
        [&](CellResult result) {
          seen.push_back(std::move(result));
          return seen.size() < 2;
        });
    // Every cell that ran settled through on_cell; the grid stopped.
    EXPECT_EQ(seen.size(), ran.load());
    EXPECT_LT(seen.size(), cells.size());
    for (const auto& result : seen) {
      EXPECT_EQ(result.status, result.cell.index == 1 ? CellStatus::Failed
                                                      : CellStatus::Ok);
      if (result.cell.index == 1) EXPECT_EQ(result.error, "stub failure");
    }
    if (!runner) {
      ASSERT_EQ(seen.size(), 2u);  // inline: cells 0 and 1, in order
      EXPECT_EQ(seen[1].cell.index, 1u);
    }
  }
}

TEST(RunCells, AnOnCellExceptionIsRethrownAfterStartedCellsSettle) {
  const auto spec = tiny_spec();
  const auto cells = expand(spec);
  ThreadPool pool(2);
  std::atomic<std::size_t> ran{0};
  std::atomic<std::size_t> settled{0};
  EXPECT_THROW(run_cells(
                   spec, cells, &pool,
                   [&](const SweepCell& cell) {
                     ++ran;
                     CellResult result;
                     result.cell = cell;
                     return result;
                   },
                   [&](CellResult) -> bool {
                     ++settled;
                     throw ExecError("sink failed");
                   }),
               ExecError);
  EXPECT_EQ(settled.load(), ran.load());
}

// --- crash-isolated local workers (spawn hosts) -----------------------------

/// Scoped PHONOC_WORKER_CRASH_INDEX: spawned workers inherit it and
/// abort() when they reach that grid index (a poison cell).
class ScopedCrashIndex {
 public:
  explicit ScopedCrashIndex(std::size_t index) {
    ::setenv("PHONOC_WORKER_CRASH_INDEX", std::to_string(index).c_str(), 1);
  }
  ~ScopedCrashIndex() { ::unsetenv("PHONOC_WORKER_CRASH_INDEX"); }
};

/// `workers` spawn endpoints for the freshly built `phonoc_workerd`, and
/// the grid run on them through the Scheduler.
std::vector<std::string> spawn_hosts(std::size_t workers) {
  return std::vector<std::string>(workers,
                                  std::string("spawn:") + PHONOC_WORKER_PATH);
}

std::vector<CellResult> run_on_spawn_hosts(const SweepSpec& spec,
                                           std::size_t workers) {
  SchedulerOptions options;
  options.hosts = spawn_hosts(workers);
  return Scheduler(std::move(options)).run(spec).results;
}

/// Every spawned worker was reaped: this process has no child left,
/// running or zombie.
void expect_no_child_left() {
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

void expect_identical(const RunResult& a, const RunResult& b);

TEST(SpawnHosts, MatchesInProcessBitForBitOn64Cells) {
  auto spec = wire_spec();  // 2^6 dimensions = 64 cells
  // Evaluation-count budgets only: the determinism contract excludes
  // wall-clock caps, and this test must never flake under load.
  spec.budgets[1].max_seconds = 0.0;
  ASSERT_GE(cell_count(spec), 64u);
  const auto reference = BatchEngine({.workers = 2}).run(spec);
  const auto forked = run_on_spawn_hosts(spec, 4);
  expect_no_child_left();
  ASSERT_EQ(forked.size(), reference.size());
  for (std::size_t i = 0; i < forked.size(); ++i) {
    ASSERT_EQ(forked[i].status, CellStatus::Ok) << forked[i].error;
    EXPECT_EQ(forked[i].cell.index, i);
    EXPECT_EQ(forked[i].seed, reference[i].seed);
    expect_identical(forked[i].run, reference[i].run);
  }
  // The aggregated SweepReports agree on every non-timing statistic.
  const auto want = SweepReport::build(spec, reference);
  const auto got = SweepReport::build(spec, forked);
  ASSERT_EQ(got.cells.size(), want.cells.size());
  EXPECT_EQ(got.run_count, want.run_count);
  EXPECT_EQ(got.failed_count, 0u);
  for (std::size_t i = 0; i < got.cells.size(); ++i) {
    for (const auto member : {&AggregateCell::best_fitness,
                              &AggregateCell::worst_loss_db,
                              &AggregateCell::worst_snr_db,
                              &AggregateCell::evaluations}) {
      const auto& g = got.cells[i].*member;
      const auto& w = want.cells[i].*member;
      EXPECT_EQ(g.count(), w.count());
      EXPECT_EQ(g.mean(), w.mean());      // bitwise
      EXPECT_EQ(g.min(), w.min());
      EXPECT_EQ(g.max(), w.max());
      EXPECT_EQ(g.stddev(), w.stddev());
    }
  }
}

TEST(SpawnHosts, InjectedCrashFailsOnlyThatCell) {
  auto spec = wire_spec();
  spec.budgets[1].max_seconds = 0.0;  // keep the grid deterministic
  const std::size_t crash_index = 10;
  const auto reference = BatchEngine({.workers = 1}).run(spec);
  const ScopedCrashIndex scoped(crash_index);
  const auto forked = run_on_spawn_hosts(spec, 4);
  expect_no_child_left();
  ASSERT_EQ(forked.size(), reference.size());
  for (std::size_t i = 0; i < forked.size(); ++i) {
    if (i == crash_index) {
      EXPECT_EQ(forked[i].status, CellStatus::Failed);
      EXPECT_NE(forked[i].error.find("signal"), std::string::npos)
          << forked[i].error;
      // Coordinates and seed survive so the failure is attributable.
      EXPECT_EQ(forked[i].cell.index, crash_index);
      EXPECT_EQ(forked[i].seed, spec.seeds[forked[i].cell.seed]);
    } else {
      ASSERT_EQ(forked[i].status, CellStatus::Ok)
          << "cell " << i << ": " << forked[i].error;
      expect_identical(forked[i].run, reference[i].run);
    }
  }
  const auto report = SweepReport::build(spec, forked);
  EXPECT_EQ(report.failed_count, 1u);
  EXPECT_EQ(report.run_count, forked.size() - 1);
}

TEST(SpawnHosts, MissingWorkerBinaryFailsFast) {
  SweepSpec spec;
  spec.add_workload("w", pipeline_cg(4))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizer("rs")
      .add_budget(10)
      .add_seed(1);
  SchedulerOptions options;
  options.hosts = {"spawn:/nonexistent/phonoc_workerd"};
  EXPECT_THROW((void)Scheduler(options).run(spec), ExecError);
  expect_no_child_left();  // thrown before any process was spawned
}

TEST(SpawnHosts, PoisonCellOnOneHostFailsAloneAndTheHostCarriesOn) {
  // One spawn host, one poison cell: every death respawns the worker
  // and quarantines the cell it died on, so after max_attempts deaths
  // that cell alone fails and every other cell is bit-identical.
  auto spec = wire_spec();
  spec.budgets[1].max_seconds = 0.0;
  const std::size_t poison = 10;
  const auto reference = BatchEngine({.workers = 2}).run(spec);
  const ScopedCrashIndex scoped(poison);
  SchedulerOptions options;
  options.hosts = spawn_hosts(1);
  const auto outcome = Scheduler(options).run(spec);
  expect_no_child_left();
  ASSERT_EQ(outcome.results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const auto& got = outcome.results[i];
    if (i == poison) {
      EXPECT_EQ(got.status, CellStatus::Failed);
      EXPECT_NE(got.error.find("killed by signal"), std::string::npos)
          << got.error;
      EXPECT_EQ(got.cell.index, poison);
      EXPECT_EQ(got.seed, reference[i].seed);
    } else {
      ASSERT_EQ(got.status, CellStatus::Ok) << "cell " << i << ": "
                                            << got.error;
      expect_identical(got.run, reference[i].run);
    }
  }
  EXPECT_EQ(outcome.pool.abandoned, 1u);
  ASSERT_EQ(outcome.hosts.size(), 1u);
  EXPECT_FALSE(outcome.hosts[0].died);  // respawned every time
  EXPECT_EQ(SweepReport::build(spec, outcome.results).failed_count, 1u);
}

// --- the Sample task kind ---------------------------------------------------

/// 2 apps x 4 sub-cells (seeds), 50 random mappings per sub-cell. The
/// optimizer/budget dimensions are the use_sampling() placeholders.
SweepSpec sampling_spec() {
  SweepSpec spec;
  spec.add_workload("p5", pipeline_cg(5))
      .add_workload("r7", random_cg({.tasks = 7,
                                     .avg_out_degree = 1.6,
                                     .min_bandwidth = 8,
                                     .max_bandwidth = 128,
                                     .seed = 19,
                                     .acyclic = false}))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_seed_range(5, 4)
      .use_sampling({.samples_per_cell = 50});
  return spec;
}

/// Exact double equality with well-defined NaN handling: NaNs match
/// NaNs of the same sign (the wire format's canonicalization contract),
/// everything else must be == (bitwise for round-tripped values).
void expect_same_double(double got, double want) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got));
    EXPECT_EQ(std::signbit(got), std::signbit(want));
  } else {
    EXPECT_EQ(got, want);
  }
}

void expect_identical_distribution(const DistributionResult& got,
                                   const DistributionResult& want) {
  EXPECT_EQ(got.samples, want.samples);
  ASSERT_EQ(got.metrics.size(), want.metrics.size());
  for (std::size_t m = 0; m < got.metrics.size(); ++m) {
    const auto& g = got.metrics[m];
    const auto& w = want.metrics[m];
    EXPECT_EQ(g.metric, w.metric);
    ASSERT_EQ(g.histogram.bins(), w.histogram.bins());
    EXPECT_EQ(g.histogram.lo(), w.histogram.lo());  // bitwise
    EXPECT_EQ(g.histogram.hi(), w.histogram.hi());
    EXPECT_EQ(g.histogram.underflow(), w.histogram.underflow());
    EXPECT_EQ(g.histogram.overflow(), w.histogram.overflow());
    EXPECT_EQ(g.histogram.total(), w.histogram.total());
    for (std::size_t b = 0; b < g.histogram.bins(); ++b)
      EXPECT_EQ(g.histogram.count(b), w.histogram.count(b)) << "bin " << b;
    EXPECT_EQ(g.stats.count(), w.stats.count());
    expect_same_double(g.stats.mean(), w.stats.mean());
    expect_same_double(g.stats.sum_squared_deviations(),
                       w.stats.sum_squared_deviations());
    expect_same_double(g.stats.min(), w.stats.min());
    expect_same_double(g.stats.max(), w.stats.max());
  }
}

/// Merge one workload's sub-cell distributions in grid (seed) order.
DistributionResult merge_workload(const SweepSpec& spec,
                                  const std::vector<CellResult>& results,
                                  std::size_t workload) {
  const auto subcells = spec.seeds.size();
  return merge_cell_distributions(results, workload * subcells, subcells);
}

TEST(SampleKind, MergedDistributionsBitIdenticalAcrossWorkersAndBackends) {
  const auto spec = sampling_spec();
  ASSERT_EQ(cell_count(spec), 8u);
  const auto reference = BatchEngine({.workers = 1}).run(spec);
  for (const auto& cell : reference) {
    ASSERT_EQ(cell.status, CellStatus::Ok) << cell.error;
    EXPECT_EQ(cell.distribution.samples,
              spec.sampling.samples_per_cell);
    ASSERT_EQ(cell.distribution.metrics.size(), 2u);
    EXPECT_EQ(cell.distribution.metrics[0].metric, "snr_db");
    EXPECT_EQ(cell.distribution.metrics[1].metric, "loss_db");
    EXPECT_EQ(cell.distribution.metrics[0].stats.count(),
              spec.sampling.samples_per_cell);
  }

  // The acceptance property: per-cell and merged distributions are
  // bit-identical for workers {1, 2, 8} on the in-process pool and
  // through 1 and 4 spawned worker processes.
  std::vector<std::vector<CellResult>> runs;
  for (const std::size_t workers : {2u, 8u})
    runs.push_back(BatchEngine({.workers = workers}).run(spec));
  for (const std::size_t workers : {1u, 4u}) {
    runs.push_back(run_on_spawn_hosts(spec, workers));
    expect_no_child_left();
  }
  for (const auto& run : runs) {
    ASSERT_EQ(run.size(), reference.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
      ASSERT_EQ(run[i].status, CellStatus::Ok) << run[i].error;
      EXPECT_EQ(run[i].seed, reference[i].seed);
      expect_identical_distribution(run[i].distribution,
                                    reference[i].distribution);
    }
    for (std::size_t w = 0; w < spec.workloads.size(); ++w)
      expect_identical_distribution(merge_workload(spec, run, w),
                                    merge_workload(spec, reference, w));
  }

  // Merging the sub-cells really yields the whole app's sample count,
  // and the library comparator agrees with the gtest one.
  const auto merged = merge_workload(spec, reference, 0);
  EXPECT_EQ(merged.samples,
            spec.sampling.samples_per_cell * spec.seeds.size());
  EXPECT_EQ(merged.find("snr_db")->stats.count(), merged.samples);
  EXPECT_EQ(merged.find("missing"), nullptr);
  EXPECT_TRUE(identical_distributions(merged,
                                      merge_workload(spec, runs[0], 0)));
  EXPECT_FALSE(identical_distributions(merged,
                                       reference[0].distribution));

  // The canonical fold refuses to merge around a failed sub-cell.
  auto broken = reference;
  broken[1].status = CellStatus::Failed;
  broken[1].error = "injected";
  EXPECT_THROW((void)merge_workload(spec, broken, 0), ExecError);
}

TEST(SampleKind, DistributionMergeRejectsForeignShapes) {
  DistributionResult a;
  a.metrics = {{"snr_db", Histogram(0.0, 45.0, 30), {}}};
  DistributionResult wrong_name;
  wrong_name.metrics = {{"loss_db", Histogram(0.0, 45.0, 30), {}}};
  EXPECT_THROW(a.merge(wrong_name), InvalidArgument);
  DistributionResult wrong_count;
  EXPECT_THROW(a.merge(wrong_count), InvalidArgument);
  DistributionResult wrong_bins;
  wrong_bins.metrics = {{"snr_db", Histogram(0.0, 45.0, 60), {}}};
  EXPECT_THROW(a.merge(wrong_bins), InvalidArgument);
}

TEST(Serialize, SamplingShardRoundTripsTaskKindAndKnobs) {
  SweepShard shard;
  shard.spec = sampling_spec();
  shard.spec.sampling.snr_lo_db = -2.25;
  shard.spec.sampling.snr_bins = 17;
  shard.spec.sampling.loss_hi_db = 0.5;
  shard.begin = 2;
  shard.end = 6;
  std::ostringstream out;
  write_shard(out, shard);
  std::istringstream in(out.str());
  const auto parsed = read_shard(in);
  EXPECT_EQ(parsed.spec.task_kind, SweepTaskKind::Sample);
  const auto& a = shard.spec.sampling;
  const auto& b = parsed.spec.sampling;
  EXPECT_EQ(b.samples_per_cell, a.samples_per_cell);
  EXPECT_EQ(b.snr_lo_db, a.snr_lo_db);  // bitwise
  EXPECT_EQ(b.snr_hi_db, a.snr_hi_db);
  EXPECT_EQ(b.snr_bins, a.snr_bins);
  EXPECT_EQ(b.loss_lo_db, a.loss_lo_db);
  EXPECT_EQ(b.loss_hi_db, a.loss_hi_db);
  EXPECT_EQ(b.loss_bins, a.loss_bins);
  EXPECT_EQ(parsed.spec.optimizers, shard.spec.optimizers);  // placeholder

  // An Optimize-kind shard carries no task_kind directive at all, so
  // pre-sampling readers keep parsing it (and ours defaults the kind).
  SweepShard optimize;
  optimize.spec = tiny_spec();
  std::ostringstream optimize_out;
  write_shard(optimize_out, optimize);
  EXPECT_EQ(optimize_out.str().find("task_kind"), std::string::npos);
  std::istringstream optimize_in(optimize_out.str());
  EXPECT_EQ(read_shard(optimize_in).spec.task_kind, SweepTaskKind::Optimize);
}

TEST(Serialize, DistributionResultRoundTripsBitForBitIncludingNonFinite) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  CellResult cell;
  cell.cell = {.index = 3, .workload = 1, .topology = 0, .goal = 0,
               .optimizer = 0, .budget = 0, .seed = 3};
  cell.seed = 8;
  cell.seconds = 0.25;
  Histogram snr_hist(0.0, 45.0, 5);
  for (const double v : {-3.0, 1.0, 13.7, 44.999, 200.0}) snr_hist.add(v);
  // A metric whose samples hit NaN/±Inf (zero-noise mappings produce
  // +inf SNR legitimately): the accumulator state must survive the wire
  // bit-for-bit, sign bits and all.
  cell.distribution.samples = 5;
  cell.distribution.metrics = {
      {"snr_db", snr_hist,
       RunningStats::from_parts(5, nan, inf, -inf, inf)},
      {"loss_db", Histogram(-4.5, 0.0, 3),
       RunningStats::from_parts(0, 0.0, 0.0, 0.0, 0.0)}};

  std::ostringstream out;
  write_cell_result(out, cell);
  std::istringstream in(out.str());
  const auto parsed = read_cell_result(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, CellStatus::Ok);
  EXPECT_EQ(parsed->cell.index, 3u);
  EXPECT_EQ(parsed->seed, 8u);
  EXPECT_EQ(parsed->seconds, 0.25);
  ASSERT_EQ(parsed->distribution.metrics.size(), 2u);
  const auto& stats = parsed->distribution.metrics[0].stats;
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_TRUE(std::isnan(stats.mean()));
  EXPECT_EQ(stats.sum_squared_deviations(), inf);
  EXPECT_EQ(stats.min(), -inf);
  EXPECT_EQ(stats.max(), inf);
  expect_identical_distribution(parsed->distribution, cell.distribution);

  // A torn distribution block (producer died mid-write) is an explicit
  // ParseError, same as the Optimize payload.
  const auto text = out.str();
  std::istringstream torn(text.substr(0, text.size() * 2 / 3));
  EXPECT_THROW((void)read_cell_result(torn), ParseError);

  // The end-to-end wire path: a sampled cell run by the real sample
  // body round-trips bit-exactly.
  const auto spec = sampling_spec();
  const auto results = BatchEngine({.workers = 1}).run(spec);
  std::ostringstream real_out;
  write_cell_result(real_out, results[0]);
  std::istringstream real_in(real_out.str());
  const auto real = read_cell_result(real_in);
  ASSERT_TRUE(real.has_value());
  expect_identical_distribution(real->distribution, results[0].distribution);
}

// --- adversarial wire input ------------------------------------------------

TEST(Serialize, SeededMutationsParseOrThrowPhonocErrors) {
  // Real inputs: six cell blocks (Optimize rs and rpbla, a failed cell,
  // two sampled cells, a non-finite distribution), one shard, one
  // two-frame stream, phonocd's request, evaluate and reply payloads,
  // and a settled-cell journal. Every mutation must parse or throw a
  // phonoc::Error; anything else (std::bad_alloc from a count that
  // sized an allocation, std::length_error) breaks a worker, a
  // scheduler or the daemon, which only expect parse errors from their
  // peers and their own files.
  struct Input {
    std::string text;
    std::function<void(const std::string&)> parse;
  };
  const auto cells = [](const std::string& text) {
    std::istringstream in(text);
    while (read_cell_result(in)) {
    }
  };
  const auto block = [](const CellResult& result) {
    std::ostringstream out;
    write_cell_result(out, result);
    return out.str();
  };
  std::vector<Input> inputs;
  const SweepSpec optimize = tiny_spec();
  const auto optimized = BatchEngine({.workers = 1}).run(optimize);
  inputs.push_back({block(optimized[0]), cells});
  inputs.push_back({block(optimized.back()), cells});
  inputs.push_back({block(make_failed_cell(optimize, optimized[0].cell,
                                           "worker killed by signal 6")),
                    cells});
  const auto sampled = BatchEngine({.workers = 1}).run(sampling_spec());
  inputs.push_back({block(sampled[0]), cells});
  inputs.push_back({block(sampled.back()), cells});
  CellResult nonfinite = sampled[0];
  nonfinite.distribution.metrics[0].stats = RunningStats::from_parts(
      5, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), -1.0, 2.0);
  inputs.push_back({block(nonfinite), cells});
  SweepShard shard;
  shard.spec = wire_spec();
  shard.end = 16;
  std::ostringstream shard_text;
  write_shard(shard_text, shard);
  inputs.push_back({shard_text.str(), [](const std::string& text) {
                      std::istringstream in(text);
                      (void)read_shard(in);
                    }});
  inputs.push_back(
      {encode_frame(shard_text.str()) + encode_frame(inputs[1].text),
       [](const std::string& text) {
         FrameDecoder decoder;
         for (std::size_t at = 0; at < text.size(); at += 97) {
           decoder.feed(std::string_view(text).substr(at, 97));
           while (decoder.next()) {
           }
         }
       }});

  // phonocd's wire: a request, an evaluate and the reply kinds a client
  // parses, the cell reply carrying a real settled cell.
  ServiceRequest request;
  request.id = "mut-1";
  request.deadline_seconds = 1.5;
  request.max_cells = 12;
  request.priority = RequestPriority::Interactive;
  request.spec = optimize;
  inputs.push_back({write_request(request), [](const std::string& text) {
                      (void)parse_request(text);
                    }});
  EvaluateRequest evaluate;
  evaluate.id = "mut-2";
  evaluate.assignment = {3, 0, 1, 2};
  evaluate.spec = optimize;
  inputs.push_back({write_evaluate(evaluate), [](const std::string& text) {
                      (void)parse_evaluate(text);
                    }});
  const auto reply = [](const std::string& text) { (void)parse_reply(text); };
  inputs.push_back({cell_reply("mut-1", optimized[1]), reply});
  inputs.push_back({evaluation_reply("mut-2", -3.25, 18.5, 2.125), reply});
  inputs.push_back(
      {rejected_reply("mut-3", RejectKind::Budget, "over 12 cells"), reply});
  inputs.push_back({done_reply("mut-1", 11, 1), reply});

  // A settled-cell journal: header plus three records, replayed from a
  // file as a restarted scheduler does.
  const std::uint64_t journal_hash =
      fnv1a64(shard_prefix(optimize));
  const std::string journal_path =
      ::testing::TempDir() + "/mutated_settled.journal";
  std::remove(journal_path.c_str());
  {
    JournalWriter writer(journal_path, journal_hash);
    writer.append(block(optimized[0]));
    writer.append(block(optimized.back()));
    writer.append(
        block(make_failed_cell(optimize, optimized[1].cell, "worker lost")));
  }
  std::ostringstream journal_text;
  journal_text << std::ifstream(journal_path, std::ios::binary).rdbuf();
  inputs.push_back(
      {journal_text.str(), [&](const std::string& text) {
         std::ofstream(journal_path, std::ios::binary | std::ios::trunc)
             << text;
         (void)replay_journal(journal_path, journal_hash, optimized.size());
       }});

  for (std::size_t i = 0; i < inputs.size(); ++i)
    ASSERT_NO_THROW(inputs[i].parse(inputs[i].text)) << "input " << i;

  std::mt19937_64 rng(20161017);
  std::size_t foreign = 0;
  std::string first;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    for (int round = 0; round < 2500; ++round) {
      const auto text = mutate(inputs[i].text, rng);
      try {
        inputs[i].parse(text);
      } catch (const Error&) {
        // The contract: a structured parse failure.
      } catch (const std::exception& e) {
        if (foreign++ == 0)
          first = "input " + std::to_string(i) + ", round " +
                  std::to_string(round) + ": " + e.what();
      }
    }
  EXPECT_EQ(foreign, 0u) << "first: " << first;
}

TEST(Serialize, TopologySidesBeyondTheTileLimitAreRejected) {
  // A grid side is only sound while side * side fits NetworkModel's
  // 32768-tile limit: 181 does, 182 does not. The check must come before
  // the side is narrowed to 32 bits, or 4294967300 reads as side 4.
  SweepShard shard;
  shard.spec = wire_spec();
  shard.end = 1;
  std::ostringstream out;
  write_shard(out, shard);
  const auto read_with_side = [&](const std::string& side) {
    std::string text = out.str();
    const std::string line = "topology torus 3\n";
    const auto at = text.find(line);
    EXPECT_NE(at, std::string::npos);
    text.replace(at, line.size(), "topology torus " + side + "\n");
    std::istringstream in(text);
    return read_shard(in);
  };
  EXPECT_THROW((void)read_with_side("4294967300"), ParseError);
  EXPECT_THROW((void)read_with_side("182"), ParseError);
  EXPECT_EQ(read_with_side("181").spec.topologies[1].side, 181u);
}

TEST(Serialize, SeedsBeyond64BitsAreRejectedNotWrapped) {
  // Seeds use the whole unsigned 64-bit range. One past it is a
  // ParseError naming its line: wrapped, 2^64 + 7 would read as seed 7
  // and rerun another cell.
  const std::string text = shard_prefix(wire_spec());
  const std::string line = "seeds 2 3 21\n";
  const auto at = text.find(line);
  ASSERT_NE(at, std::string::npos);
  const int line_no =
      1 + static_cast<int>(std::count(text.begin(), text.begin() + at, '\n'));
  const auto read_with_seed = [&](const std::string& seed) {
    std::string edited = text;
    edited.replace(at, line.size(), "seeds 2 3 " + seed + "\n");
    std::istringstream in(edited);
    return read_spec(in);
  };
  try {
    (void)read_with_seed("18446744073709551623");
    ADD_FAILURE() << "seed 2^64 + 7 was accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), line_no);
  }
  EXPECT_THROW((void)read_with_seed("-7"), ParseError);
  EXPECT_EQ(read_with_seed("18446744073709551615").seeds[1],
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Serialize, CellTilesBeyond32BitsAreRejectedNotNarrowed) {
  // A TileId is 32 bits wide. A mapping or per-edge tile of 2^32 + 2 is
  // a ParseError, never tile 2.
  SweepSpec spec;
  spec.add_workload("w", pipeline_cg(4))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizer("rs")
      .add_budget(20)
      .add_seed(5);
  const auto results = BatchEngine({.workers = 1}).run(spec);
  ASSERT_EQ(results.size(), 1u);
  std::ostringstream out;
  write_cell_result(out, results[0]);
  const std::string text = out.str();
  // Replace field `field` of the first line starting with `directive`.
  const auto with_field = [&](const std::string& directive,
                              std::size_t field, const std::string& value) {
    const auto begin = text.find("\n" + directive + " ") + 1;
    const auto end = text.find('\n', begin);
    auto fields = split_ws(text.substr(begin, end - begin));
    EXPECT_LT(field, fields.size());
    fields[field] = value;
    std::string line;
    for (const auto& f : fields) line += (line.empty() ? "" : " ") + f;
    std::istringstream in(text.substr(0, begin) + line + text.substr(end));
    return read_cell_result(in);
  };
  EXPECT_THROW((void)with_field("mapping", 3, "4294967298"), ParseError);
  EXPECT_THROW((void)with_field("e", 2, "4294967298"), ParseError);
  EXPECT_THROW((void)with_field("e", 3, "4294967298"), ParseError);
  EXPECT_THROW((void)with_field("e", 1, "4294967296"), ParseError);
  const auto edited = with_field("e", 2, "4294967295");
  ASSERT_TRUE(edited.has_value());
  EXPECT_EQ(edited->run.best_evaluation.edges[0].src_tile, 4294967295u);
}

// --- the network problem cache ---------------------------------------------

TEST(BatchEngine, NetworkCacheIsWorkloadIndependent) {
  // build_sweep_problems keys shared networks on {resolved side,
  // topology index} and builds each network from whichever workload
  // reaches it first. This is sound because a network never depends on
  // the workload beyond its resolved side: two different 6-task
  // workloads sharing an auto-sized topology must produce cells
  // bit-identical to runs on per-cell fresh networks.
  SweepSpec spec;
  spec.add_workload("p6", pipeline_cg(6))
      .add_workload("r6", random_cg({.tasks = 6,
                                     .avg_out_degree = 1.8,
                                     .seed = 23,
                                     .acyclic = false}))
      .add_topology(TopologyKind::Mesh)  // auto side: 3x3 for both
      .add_topology(TopologyKind::Torus)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizers({"rs", "rpbla"})
      .add_budget(50)
      .add_seed(9);
  ASSERT_EQ(resolved_side(spec, 0, 0), resolved_side(spec, 1, 0));
  const auto cached = BatchEngine({.workers = 1}).run(spec);
  for (const auto& cell : expand(spec)) {
    // Fresh network for every cell: no sharing at all.
    const auto fresh_problem = make_problem(spec, cell, nullptr);
    const auto fresh = run_sweep_cell(spec, cell, fresh_problem);
    expect_identical(cached[cell.index].run, fresh.run);
  }
}

// --- failed cells in aggregation -------------------------------------------

TEST(Aggregate, FailedCellsAreCountedButExcludedFromStats) {
  const auto spec = tiny_spec();
  auto results = BatchEngine({.workers = 1}).run(spec);
  const auto clean = SweepReport::build(spec, results, 1.5);
  EXPECT_EQ(clean.wall_seconds, 1.5);
  EXPECT_EQ(clean.failed_count, 0u);

  // Kill one seed of the first coordinate.
  results[0].status = CellStatus::Failed;
  results[0].error = "injected";
  const auto report = SweepReport::build(spec, results, 1.5);
  EXPECT_EQ(report.failed_count, 1u);
  EXPECT_EQ(report.run_count, results.size() - 1);
  EXPECT_EQ(report.cells.front().best_fitness.count(),
            spec.seeds.size() - 1);
  // cpu_seconds only sums successful cells.
  EXPECT_NEAR(report.cpu_seconds + results[0].seconds, clean.cpu_seconds,
              1e-12);

  // A coordinate whose every seed failed still gets a report row (0
  // runs), so rows stay aligned with the grid.
  for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
    results[s].status = CellStatus::Failed;
    results[s].error = "injected";
  }
  const auto all_failed = SweepReport::build(spec, results);
  EXPECT_EQ(all_failed.cells.size(), clean.cells.size());
  EXPECT_EQ(all_failed.cells.front().best_fitness.count(), 0u);
  EXPECT_EQ(all_failed.failed_count, spec.seeds.size());
  EXPECT_EQ(all_failed.to_table().row_count(), clean.cells.size());
}

// --- the determinism property ---------------------------------------------
//
// For random problems, BatchEngine with 1, 2 and 8 workers produces
// bit-identical RunResults to sequential Engine::run calls with the
// same seeds. (Timing fields are the only allowed difference.)

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_TRUE(a.search.best == b.search.best);
  EXPECT_EQ(a.search.best_fitness, b.search.best_fitness);  // bitwise
  EXPECT_EQ(a.search.evaluations, b.search.evaluations);
  EXPECT_EQ(a.search.iterations, b.search.iterations);
  ASSERT_EQ(a.search.trace.size(), b.search.trace.size());
  for (std::size_t i = 0; i < a.search.trace.size(); ++i) {
    EXPECT_EQ(a.search.trace[i].evaluation, b.search.trace[i].evaluation);
    EXPECT_EQ(a.search.trace[i].fitness, b.search.trace[i].fitness);
  }
  EXPECT_EQ(a.best_evaluation.worst_loss_db, b.best_evaluation.worst_loss_db);
  EXPECT_EQ(a.best_evaluation.worst_snr_db, b.best_evaluation.worst_snr_db);
}

TEST(Determinism, IdenticalResultsCatchesEveryOneFieldDifference) {
  // The comparator behind every --verify: a cell equals itself and a
  // copy that differs only in its timing fields, and a change in any
  // one contract field is caught, in either argument order.
  auto spec = tiny_spec();
  spec.goals = {OptimizationGoal::Snr};  // per-edge noise fields non-zero
  const auto cell = BatchEngine({.workers = 1}).run(spec).front();
  ASSERT_EQ(cell.status, CellStatus::Ok) << cell.error;
  ASSERT_FALSE(cell.run.search.trace.empty());
  ASSERT_FALSE(cell.run.best_evaluation.edges.empty());
  EXPECT_TRUE(identical_results(cell, cell));
  auto timed = cell;
  timed.seconds += 1.0;
  timed.run.search.seconds += 1.0;
  EXPECT_TRUE(identical_results(timed, cell));

  const auto up = [](double& value) { value = std::nextafter(value, 1e300); };
  using Edit = std::function<void(CellResult&)>;
  const std::vector<std::pair<std::string, Edit>> edits = {
      {"status", [](CellResult& c) { c.status = CellStatus::Failed; }},
      {"seed", [](CellResult& c) { ++c.seed; }},
      {"algorithm", [](CellResult& c) { c.run.algorithm += "'"; }},
      {"best",
       [](CellResult& c) {
         auto& best = c.run.search.best;
         best.swap_tiles(best.tile_of(0), best.tile_of(1));
       }},
      {"best_fitness", [&](CellResult& c) { up(c.run.search.best_fitness); }},
      {"evaluations", [](CellResult& c) { ++c.run.search.evaluations; }},
      {"iterations", [](CellResult& c) { ++c.run.search.iterations; }},
      {"trace length",
       [](CellResult& c) { c.run.search.trace.push_back({0, 0.0}); }},
      {"trace evaluation",
       [](CellResult& c) { ++c.run.search.trace.back().evaluation; }},
      {"trace fitness",
       [&](CellResult& c) { up(c.run.search.trace.back().fitness); }},
      {"worst_loss_db",
       [&](CellResult& c) { up(c.run.best_evaluation.worst_loss_db); }},
      {"worst_snr_db",
       [&](CellResult& c) { up(c.run.best_evaluation.worst_snr_db); }},
      {"edge count",
       [](CellResult& c) { c.run.best_evaluation.edges.pop_back(); }},
      {"edge id", [](CellResult& c) { ++c.run.best_evaluation.edges[0].edge; }},
      {"edge src_tile",
       [](CellResult& c) { ++c.run.best_evaluation.edges[0].src_tile; }},
      {"edge dst_tile",
       [](CellResult& c) { ++c.run.best_evaluation.edges[0].dst_tile; }},
      {"edge loss_db",
       [&](CellResult& c) { up(c.run.best_evaluation.edges[0].loss_db); }},
      {"edge signal_gain",
       [&](CellResult& c) { up(c.run.best_evaluation.edges[0].signal_gain); }},
      {"edge noise_gain",
       [&](CellResult& c) { up(c.run.best_evaluation.edges[0].noise_gain); }},
      {"edge snr_db",
       [&](CellResult& c) { up(c.run.best_evaluation.edges[0].snr_db); }},
      {"distribution", [](CellResult& c) { ++c.distribution.samples; }},
  };
  for (const auto& [field, edit] : edits) {
    auto changed = cell;
    edit(changed);
    EXPECT_FALSE(identical_results(changed, cell)) << field;
    EXPECT_FALSE(identical_results(cell, changed)) << field;
  }
}

class DeterminismSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismSweep, BatchEngineMatchesSequentialRunsBitForBit) {
  const auto problem_seed = GetParam();
  SweepSpec spec;
  spec.add_workload("random", random_cg({.tasks = 9,
                                         .avg_out_degree = 1.7,
                                         .min_bandwidth = 8,
                                         .max_bandwidth = 128,
                                         .seed = problem_seed,
                                         .acyclic = false}))
      .add_topology(TopologyKind::Mesh, 4)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizers({"rs", "ga", "rpbla", "sa"})
      .add_budget(400)
      .add_seed(problem_seed)
      .add_seed(problem_seed + 17);

  // Sequential reference: one Engine::run per optimizer and seed.
  const auto problem = make_problem(spec, expand(spec)[0]);
  const Engine engine(problem);
  OptimizerBudget budget;
  budget.max_evaluations = 400;
  std::vector<std::vector<RunResult>> reference;  // [seed][optimizer]
  for (const auto seed : spec.seeds) {
    auto& runs = reference.emplace_back();
    for (const auto& name : spec.optimizers)
      runs.push_back(engine.run(name, budget, seed));
  }

  for (const std::size_t workers : {1u, 2u, 8u}) {
    const auto results = BatchEngine({.workers = workers}).run(spec);
    ASSERT_EQ(results.size(), spec.optimizers.size() * spec.seeds.size());
    for (std::size_t o = 0; o < spec.optimizers.size(); ++o)
      for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
        const auto& got =
            results[grid_index(spec, 0, 0, 0, o, 0, s)];
        EXPECT_EQ(got.seed, spec.seeds[s]);
        expect_identical(got.run, reference[s][o]);
      }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomProblems, DeterminismSweep,
                         ::testing::Values(3u, 29u, 404u));

TEST(Determinism, EvaluatorOptionsCannotChangeBatchResults) {
  // The evaluation memo only changes the physical cost of a cell, never
  // its outcome: a grid run with the memo on and each cell run on a
  // memo-off Evaluator are both bit-identical to the oracle
  // (tests/oracle.hpp) run of each cell.
  SweepSpec spec;
  spec.add_workload("random", random_cg({.tasks = 8,
                                         .avg_out_degree = 1.6,
                                         .seed = 12,
                                         .acyclic = false}))
      .add_topology(TopologyKind::Mesh, 3)
      .add_goal(OptimizationGoal::InsertionLoss)
      .add_optimizers({"rs", "sa", "tabu", "rpbla"})
      .add_budget(300)
      .add_seed(7);
  const auto defaults = BatchEngine({.workers = 2}).run(spec);
  const auto cells = expand(spec);
  ASSERT_EQ(defaults.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto problem = make_problem(spec, cells[i]);
    const auto want = oracle_run(problem, spec.optimizers[cells[i].optimizer],
                                 spec.budgets[cells[i].budget],
                                 spec.seeds[cells[i].seed]);
    Evaluator memo_off(problem, {.cache_capacity = 0});
    const auto plain = run_sweep_cell(spec, cells[i], memo_off);
    EXPECT_EQ(memo_off.cache_hit_count() + memo_off.cache_miss_count(), 0u);
    expect_identical(defaults[i].run, want);
    expect_identical(plain.run, want);
  }
}

}  // namespace
}  // namespace phonoc
