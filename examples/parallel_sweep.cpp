/// \file parallel_sweep.cpp
/// \brief Example: declare a multi-hundred-cell design-space sweep and
/// run it on all hardware threads with BatchEngine.
///
/// The sweep crosses the paper's eight benchmark applications with both
/// topology families, both objectives, three optimizers and three seeds
/// — 288 cells — then prints the aggregated per-cell report (seed
/// dimension collapsed into RunningStats) and optionally a CSV.
///
///     parallel_sweep [--evals=N] [--workers=N] [--seeds=N] [--csv=FILE]
///                    [--backend=thread|fork|remote]
///                    [--hosts=EP1,EP2,...] [--cells-per-shard=N]
///                    [--journal=FILE] [--admit-port=N] [--pin]
///                    [--trace=FILE] [--host-report-csv=FILE]
///                    [--verify] [--expect-failed=N]
///                    [--expect-admitted=N] [--expect-journaled-min=N]
///
/// `--backend=fork` runs the grid on `--workers` crash-isolated local
/// worker processes: one `spawn:` host per worker for the
/// `phonoc_workerd` sitting next to this executable, driven through
/// the Scheduler like any fleet. A dying worker is respawned and fails
/// only the cell it died on.
///
/// `--backend=remote` ships framed shards to a fleet of worker
/// endpoints through the distributed scheduler (src/sched/): `--hosts`
/// lists them — `host:port` TCP `phonoc_workerd` daemons, `spawn:PATH`
/// local worker processes of another binary, or `loopback` for
/// in-process served connections (the default fleet is two loopback
/// workers). Dead hosts fail over and stragglers are
/// retried; results stay bit-identical to the in-process backend. The
/// summary prints each host's ledger activity (steals, retries,
/// speculations, late admission).
///
/// `--journal=FILE` (fork and remote) logs every settled cell to an
/// append-only checksummed journal; re-running the same sweep with the
/// same journal replays the settled cells and only executes the rest —
/// a scheduler killed mid-sweep resumes instead of restarting. CI
/// `kill -9`s a sweep and asserts the resumed report with `--verify
/// --expect-failed=0 --expect-journaled-min=1`.
///
/// `--admit-port=N` (fork and remote) opens the dynamic-admission port:
/// `phonoc_workerd --join=host:N` daemons enter the sweep mid-flight
/// and absorb queued, stolen or speculated work. `--expect-admitted=N`
/// asserts how many actually joined.
///
/// `--trace=FILE` records the sweep's flight-recorder events (exec
/// cell spans, sched deal/steal/settle, host losses) and writes them
/// as Chrome trace_event JSON on exit — load the file in Perfetto or
/// chrome://tracing. Tracing is read-only: results stay bit-identical
/// with it on or off (see src/obs/README.md).
///
/// `--host-report-csv=FILE` (fork and remote) dumps the per-host ledger —
/// one HostReport row per fleet member, late joiners last — as CSV.
///
/// `--pin` caps in-flight cells at the hardware thread count
/// (`BatchOptions::pin_one_cell_per_thread`) so `max_seconds` budgets
/// are not distorted by oversubscription.
///
/// `--verify` re-runs the sweep on the in-process backend and asserts
/// every cell is bit-identical (`identical_results`: seed and every
/// non-timing RunResult field) — CI uses this to prove the remote
/// scheduler's determinism contract, including runs where one daemon
/// is killed mid-sweep and its cells are recovered by retry.
/// `--expect-failed` asserts the exact number of failed cells (the
/// fork-backend crash smoke, where PHONOC_WORKER_CRASH_INDEX makes one
/// cell poison).
///
/// Because every cell owns its Evaluator and RNG, the results are
/// bit-identical whatever the worker count or backend: re-run with
/// --workers=1 and diff the CSV to see the determinism contract in
/// action (every column except the wall-time one matches exactly).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <utility>

#include "exec/aggregate.hpp"
#include "exec/batch_engine.hpp"
#include "exec/sweep.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace phonoc;
  const CliOptions cli(argc, argv);
  const auto evals = cli.get_uint<std::uint64_t>("evals", 2000);
  const auto workers = cli.get_uint<std::size_t>("workers", 0);
  const auto seeds = cli.get_uint<std::size_t>("seeds", 3);
  // Both fleets run through the Scheduler below: spawned local workers
  // for --backend=fork, the --hosts endpoints for --backend=remote.
  std::vector<std::string> hosts;
  try {
    hosts = fleet_from_cli(cli, argv[0], workers);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  const auto trace_path = cli.get_or("trace", "");
  const bool fleet_backend = !hosts.empty();
  const auto host_csv_path = cli.get_or("host-report-csv", "");
  if (!host_csv_path.empty() && !fleet_backend) {
    std::cerr << "error: --host-report-csv needs --backend=fork|remote\n";
    return 1;
  }
  if (!trace_path.empty()) obs::start_tracing();

  SweepSpec spec;
  spec.add_all_benchmarks()
      .add_topology(TopologyKind::Mesh)
      .add_topology(TopologyKind::Torus)
      .add_goal(OptimizationGoal::Snr)
      .add_goal(OptimizationGoal::InsertionLoss)
      .add_optimizers({"rs", "ga", "rpbla"})
      .add_budget(evals)
      .add_seed_range(1, seeds);

  const BatchEngine engine({.workers = workers,
                            .pin_one_cell_per_thread =
                                cli.get_bool("pin", false)});
  std::cout << "Sweeping " << cell_count(spec) << " cells ("
            << spec.workloads.size() << " apps x " << spec.topologies.size()
            << " topologies x " << spec.goals.size() << " objectives x "
            << spec.optimizers.size() << " optimizers x " << spec.seeds.size()
            << " seeds) on ";
  if (fleet_backend)
    std::cout << hosts.size() << ' ' << cli.get_or("backend", "thread")
              << " host(s)...\n";
  else
    std::cout << engine.worker_count() << " thread worker(s)...\n";

  Timer timer;
  // The fleet outcome — per-host ledger counters, journal replay
  // count, admitted joiners — feeds the summary and the --expect-*
  // assertions. The cell results are the same either way.
  std::optional<ScheduleResult> fleet;
  std::vector<CellResult> results;
  if (fleet_backend) {
    SchedulerOptions sched;
    sched.hosts = hosts;
    if (const auto shard_cells =
            cli.get_uint<std::size_t>("cells-per-shard", 0);
        shard_cells > 0)
      sched.cells_per_shard = shard_cells;
    sched.journal_path = cli.get_or("journal", "");
    sched.admit_port = cli.get_int("admit-port", -1);
    try {
      fleet = Scheduler(std::move(sched)).run(spec);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
    results = fleet->results;
  } else {
    results = engine.run(spec);
  }
  const auto report = SweepReport::build(spec, results,
                                         timer.elapsed_seconds());

  std::cout << '\n' << report.to_ascii() << '\n';
  if (fleet) {
    std::cout << "Fleet of " << fleet->hosts.size() << " host(s):\n";
    for (const auto& host : fleet->hosts)
      std::cout << "  '" << host.endpoint << "'"
                << (host.admitted_late ? " [admitted late]" : "")
                << (host.connected ? (host.died ? " [died]" : "")
                                   : " [unreachable]")
                << ": " << host.shards << " shard(s), " << host.cells_ok
                << " ok, " << host.cells_failed << " failed, "
                << host.duplicates << " duplicate(s), " << host.steals
                << " stolen, " << host.retries << " retried, "
                << host.speculations << " speculated\n";
    if (fleet->journaled > 0)
      std::cout << "  journal replay settled " << fleet->journaled
                << " cell(s) from a previous run\n";
  }
  std::cout << "Ran " << report.run_count << " runs in "
            << format_fixed(report.wall_seconds, 1) << " s wall ("
            << format_fixed(report.cpu_seconds, 1)
            << " s of CPU work; "
            << format_fixed(report.cpu_seconds /
                                std::max(1e-9, report.wall_seconds),
                            2)
            << "x parallel efficiency x workers).\n";
  if (report.failed_count > 0) {
    std::cout << report.failed_count << " cell(s) FAILED:\n";
    for (const auto& result : results)
      if (result.status == CellStatus::Failed)
        std::cout << "  cell " << result.cell.index << " ("
                  << cell_label(spec, result.cell) << "): " << result.error
                  << '\n';
  }

  if (!trace_path.empty()) {
    obs::stop_tracing();
    obs::write_chrome_trace_file(trace_path);
    std::cout << "Trace (" << obs::trace_event_count() << " events, "
              << obs::trace_dropped_events() << " dropped) written to "
              << trace_path << '\n';
  }

  if (!host_csv_path.empty()) {
    std::ofstream out(host_csv_path);
    if (!out) {
      std::cerr << "error: cannot open " << host_csv_path
                << " for writing\n";
      return 1;
    }
    out << host_report_csv(*fleet);
    std::cout << "Host report written to " << host_csv_path << '\n';
  }

  if (const auto csv_path = cli.get("csv")) {
    std::ofstream out(*csv_path);
    if (!out) {
      std::cerr << "error: cannot open " << *csv_path << " for writing\n";
      return 1;
    }
    report.write_csv(out);
    std::cout << "Aggregated report written to " << *csv_path << '\n';
  }

  if (cli.has("verify")) {
    std::cout << "Verifying bit-identity against the in-process backend...\n";
    const auto reference = BatchEngine({.workers = workers}).run(spec);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (identical_results(results[i], reference[i])) continue;
      std::cerr << "verify: cell " << i << " differs ("
                << (results[i].status == CellStatus::Failed
                        ? "failed: " + results[i].error
                        : "fitness " +
                              format_double(
                                  results[i].run.search.best_fitness) +
                              " vs " +
                              format_double(
                                  reference[i].run.search.best_fitness))
                << ")\n";
      ++mismatches;
    }
    if (mismatches > 0) {
      std::cerr << "error: " << mismatches << " of " << results.size()
                << " cells differ from the in-process backend\n";
      return 1;
    }
    std::cout << "Determinism check passed: " << results.size()
              << " cells bit-identical across backends.\n";
  }

  if (cli.has("expect-failed")) {
    const auto expected = cli.get_uint<std::size_t>("expect-failed", 0);
    if (report.failed_count != expected) {
      std::cerr << "error: expected " << expected << " failed cell(s), got "
                << report.failed_count << '\n';
      return 1;
    }
    if (report.run_count + report.failed_count != results.size()) {
      std::cerr << "error: " << results.size() << " cells but only "
                << report.run_count + report.failed_count
                << " accounted for\n";
      return 1;
    }
    std::cout << "Crash-isolation check passed: " << report.failed_count
              << " failed, " << report.run_count << " completed.\n";
  }

  if (cli.has("expect-admitted")) {
    const auto expected = cli.get_uint<std::size_t>("expect-admitted", 0);
    std::size_t admitted = 0;
    if (fleet)
      for (const auto& host : fleet->hosts)
        if (host.admitted_late) ++admitted;
    if (admitted != expected) {
      std::cerr << "error: expected " << expected
                << " late-admitted host(s), got " << admitted << '\n';
      return 1;
    }
    std::cout << "Admission check passed: " << admitted
              << " host(s) joined mid-sweep.\n";
  }

  if (cli.has("expect-journaled-min")) {
    const auto floor = cli.get_uint<std::size_t>("expect-journaled-min", 1);
    const std::size_t journaled = fleet ? fleet->journaled : 0;
    if (journaled < floor) {
      std::cerr << "error: expected at least " << floor
                << " journal-replayed cell(s), got " << journaled << '\n';
      return 1;
    }
    std::cout << "Resume check passed: " << journaled
              << " cell(s) replayed from the journal.\n";
  }
  return 0;
}
