/// \file bench_parallel_sweep.cpp
/// \brief P2 — batch-exploration throughput: wall-clock speedup of the
/// BatchEngine parallel path over the sequential protocol on a
/// Table II-style grid, plus a bit-identity check between the two.
///
/// The grid (8 apps x 2 topologies x 2 objectives x 2 algorithms x 2
/// seeds = 128 cells by default) is executed twice: once on a single
/// worker (the sequential reference) and once on the full pool. The
/// acceptance bar for the subsystem is >= 2x speedup on >= 4 workers at
/// >= 100 cells, with every RunResult bit-identical between the runs.
///
/// --evals=N cell budget (default 1500; PHONOC_SWEEP_EVALS overrides),
/// --workers=N pool size for the parallel pass (default all threads),
/// --fork=1 adds a local worker-process pass (spawn hosts for the
/// `phonoc_workerd` next to this binary: process spawn + wire-protocol
/// overhead, bit-identity across the process boundary),
/// --remote=N adds a distributed-scheduler pass over N loopback workers
/// (framing + scheduling overhead, bit-identity through src/sched/),
/// --workerd-threads=A,B,... adds one remote pass per value: a single
/// loopback worker whose internal exec pool is pinned to that width
/// (the worker-side scaling axis of serve_connection; bit-identity is
/// re-checked at every width since frames leave in settle order),
/// --csv=FILE dump the aggregated report,
/// --json=FILE dump the headline numbers as a snapshot for the in-repo
/// perf trajectory (bench/BENCH_parallel_sweep.json; regenerate with
/// bench/update_snapshots.sh).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "exec/aggregate.hpp"
#include "exec/batch_engine.hpp"
#include "exec/sweep.hpp"
#include "sched/scheduler.hpp"
#include "sched/transport.hpp"
#include "sched/worker.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace {

using namespace phonoc;

/// Bit-identity of two runs: same incumbent, same fitness, same
/// evaluation count, same trace length (timing fields excluded).
bool identical(const CellResult& a, const CellResult& b) {
  return a.run.search.best == b.run.search.best &&
         a.run.search.best_fitness == b.run.search.best_fitness &&
         a.run.search.evaluations == b.run.search.evaluations &&
         a.run.search.trace.size() == b.run.search.trace.size() &&
         a.run.best_evaluation.worst_loss_db ==
             b.run.best_evaluation.worst_loss_db &&
         a.run.best_evaluation.worst_snr_db ==
             b.run.best_evaluation.worst_snr_db;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli(argc, argv);
  const auto evals = cli.get_uint<std::uint64_t>(
      "evals", static_cast<std::uint64_t>(env_int("PHONOC_SWEEP_EVALS", 1500)));
  const auto workers = cli.get_uint<std::size_t>("workers", 0);

  SweepSpec spec;
  spec.add_all_benchmarks()
      .add_topology(TopologyKind::Mesh)
      .add_topology(TopologyKind::Torus)
      .add_goal(OptimizationGoal::Snr)
      .add_goal(OptimizationGoal::InsertionLoss)
      .add_optimizers({"rs", "rpbla"})
      .add_budget(evals)
      .add_seed_range(1, 2);

  const BatchEngine sequential({.workers = 1});
  const BatchEngine parallel({.workers = workers});
  std::cout << "# P2: parallel batch-exploration speedup, " << cell_count(spec)
            << " cells x " << evals << " evaluations, pool of "
            << parallel.worker_count() << " worker(s)\n\n";

  Timer timer;
  const auto sequential_results = sequential.run(spec);
  const double sequential_seconds = timer.elapsed_seconds();
  timer.restart();
  const auto parallel_results = parallel.run(spec);
  const double parallel_seconds = timer.elapsed_seconds();

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < sequential_results.size(); ++i)
    if (!identical(sequential_results[i], parallel_results[i])) ++mismatches;

  // Optional third pass: crash-isolated local worker processes (one
  // spawn host per worker). Measures the process-spawn + serialization
  // overhead against the in-process pool and re-checks bit-identity
  // across the wire.
  if (cli.get_bool("fork", false)) {
    const auto hosts = local_worker_endpoints(argv[0], workers);
    const BatchEngine forked(
        {.backend = BatchBackend::Remote, .remote_hosts = hosts});
    timer.restart();
    const auto forked_results = forked.run(spec);
    const double forked_seconds = timer.elapsed_seconds();
    std::size_t fork_mismatches = 0;
    for (std::size_t i = 0; i < sequential_results.size(); ++i)
      if (forked_results[i].status != CellStatus::Ok ||
          !identical(sequential_results[i], forked_results[i]))
        ++fork_mismatches;
    std::cout << "# fork (" << hosts.size() << " worker processes): "
              << format_fixed(forked_seconds, 2) << " s, "
              << fork_mismatches << " mismatched cells"
              << (fork_mismatches == 0 ? " (bit-identical across the wire)"
                                       : " (BUG)")
              << '\n';
    mismatches += fork_mismatches;
  }

  // Optional fourth pass: the distributed scheduler over an in-process
  // loopback fleet. Measures the framing + scheduling overhead of
  // src/sched/ and re-checks bit-identity through the full remote path
  // (frames, retry bookkeeping, per-host merge).
  if (const auto remote_hosts = cli.get_uint<std::size_t>("remote", 0);
      remote_hosts > 0) {
    BatchOptions remote_options{.backend = BatchBackend::Remote};
    remote_options.remote_hosts.assign(remote_hosts, "loopback");
    const BatchEngine remote(remote_options);
    timer.restart();
    const auto remote_results = remote.run(spec);
    const double remote_seconds = timer.elapsed_seconds();
    std::size_t remote_mismatches = 0;
    for (std::size_t i = 0; i < sequential_results.size(); ++i)
      if (remote_results[i].status != CellStatus::Ok ||
          !identical(sequential_results[i], remote_results[i]))
        ++remote_mismatches;
    std::cout << "# remote scheduler (" << remote_hosts
              << " loopback workers): " << format_fixed(remote_seconds, 2)
              << " s, " << remote_mismatches << " mismatched cells"
              << (remote_mismatches == 0
                      ? " (bit-identical through the scheduler)"
                      : " (BUG)")
              << '\n';
    mismatches += remote_mismatches;
  }

  // Optional worker-side scaling axis: one loopback worker per pass,
  // its internal exec pool pinned to each requested width. Cells leave
  // in settle order at every width, so this doubles as a determinism
  // stress of the scheduler's index-matching dedup.
  struct WorkerdPoint {
    std::size_t threads = 0;
    double seconds = 0.0;
  };
  std::vector<WorkerdPoint> workerd_axis;
  for (const auto& field : split(cli.get_or("workerd-threads", ""), ',')) {
    const auto text = trim(field);
    if (text.empty()) continue;
    const auto threads =
        static_cast<std::size_t>(std::max<long>(parse_long(text), 1));
    const auto transport =
        std::make_shared<LoopbackTransport>([threads](Connection& conn) {
          return serve_connection(conn, {.threads = threads});
        });
    SchedulerOptions sched;
    sched.hosts = {"loopback"};
    sched.transport = transport;
    sched.cells_per_shard = std::max<std::size_t>(16, 2 * threads);
    timer.restart();
    const auto outcome = Scheduler(std::move(sched)).run(spec);
    const double seconds = timer.elapsed_seconds();
    std::size_t pool_mismatches = 0;
    for (std::size_t i = 0; i < sequential_results.size(); ++i)
      if (outcome.results[i].status != CellStatus::Ok ||
          !identical(sequential_results[i], outcome.results[i]))
        ++pool_mismatches;
    std::cout << "# workerd pool (" << threads
              << " exec thread(s)): " << format_fixed(seconds, 2) << " s, "
              << pool_mismatches << " mismatched cells"
              << (pool_mismatches == 0 ? " (bit-identical at this width)"
                                       : " (BUG)")
              << '\n';
    mismatches += pool_mismatches;
    workerd_axis.push_back({threads, seconds});
  }

  const auto report = SweepReport::build(spec, parallel_results,
                                         parallel_seconds);
  std::cout << report.to_ascii() << '\n';

  const double speedup =
      parallel_seconds > 0.0 ? sequential_seconds / parallel_seconds : 0.0;
  std::cout << "# sequential (1 worker): "
            << format_fixed(sequential_seconds, 2) << " s\n"
            << "# parallel  (" << parallel.worker_count()
            << " workers): " << format_fixed(parallel_seconds, 2) << " s\n"
            << "# speedup: " << format_fixed(speedup, 2) << "x  ("
            << (speedup >= 2.0 ? "PASS" : "below")
            << " the >=2x acceptance bar)\n"
            << "# determinism: " << mismatches << " mismatched cells of "
            << sequential_results.size()
            << (mismatches == 0 ? " (bit-identical)" : " (BUG)") << '\n';

  if (const auto csv_path = cli.get("csv")) {
    std::ofstream out(*csv_path);
    if (!out) {
      std::cerr << "error: cannot open " << *csv_path << " for writing\n";
      return 1;
    }
    report.write_csv(out);
    std::cout << "# aggregated report written to " << *csv_path << '\n';
  }

  if (const auto json_path = cli.get("json")) {
    std::ofstream out(*json_path);
    if (!out) {
      std::cerr << "error: cannot open " << *json_path << " for writing\n";
      return 1;
    }
    const double cells_per_second =
        parallel_seconds > 0.0 ? sequential_results.size() / parallel_seconds
                               : 0.0;
    out << "{\n"
        << "  \"benchmark\": \"parallel_sweep\",\n"
        << "  \"cells\": " << sequential_results.size() << ",\n"
        << "  \"evaluations_per_cell\": " << evals << ",\n"
        << "  \"workers\": " << parallel.worker_count() << ",\n"
        << "  \"sequential_seconds\": " << format_fixed(sequential_seconds, 4)
        << ",\n"
        << "  \"parallel_seconds\": " << format_fixed(parallel_seconds, 4)
        << ",\n"
        << "  \"speedup\": " << format_fixed(speedup, 3) << ",\n"
        << "  \"parallel_cells_per_second\": "
        << format_fixed(cells_per_second, 2) << ",\n"
        << "  \"mismatched_cells\": " << mismatches;
    if (!workerd_axis.empty()) {
      out << ",\n  \"workerd_threads_axis\": [";
      for (std::size_t i = 0; i < workerd_axis.size(); ++i) {
        const auto& point = workerd_axis[i];
        const double rate = point.seconds > 0.0
                                ? sequential_results.size() / point.seconds
                                : 0.0;
        out << (i == 0 ? "\n" : ",\n")
            << "    {\"threads\": " << point.threads
            << ", \"seconds\": " << format_fixed(point.seconds, 4)
            << ", \"cells_per_second\": " << format_fixed(rate, 2) << "}";
      }
      out << "\n  ]";
    }
    out << "\n}\n";
    std::cout << "# snapshot written to " << *json_path << '\n';
  }
  return mismatches == 0 ? 0 : 1;
}
