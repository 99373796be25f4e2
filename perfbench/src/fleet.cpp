/// \file fleet.cpp
/// \brief fleet_sweep: the 192-cell parallel_sweep grid through
/// Scheduler::run on two TCP phonoc_workerd daemons; also the sched probe
/// of traced runs on the other workloads.

#include <algorithm>
#include <cmath>

#include "exec/batch_engine.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace phonoc;

namespace {

constexpr std::uint64_t kFleetEvals = 2000;
constexpr std::size_t kFleetHosts = 2;

struct FleetPhase {
  std::vector<double> setup_s;
  std::vector<ScheduleResult> sweeps;
  std::vector<double> sweep_s;
  double rss_mb = 0.0;  ///< largest daemon VmHWM
  std::size_t hung_daemons = 0;  ///< traced daemons that never exited
  SchedTraceInput traces;
};

SchedulerOptions scheduler_options(const std::vector<std::string>& hosts) {
  SchedulerOptions options;
  options.hosts = hosts;
  options.handshake_timeout_seconds = 10.0;
  // A daemon silent this long is declared dead and its cells retried or
  // failed: a hung daemon becomes counted failures, never a hang.
  options.cell_timeout_seconds = 30.0;
  return options;
}

/// A small grid to warm a fresh fleet (connections, page cache, pools).
SweepSpec warmup_grid() {
  SweepSpec spec;
  spec.add_all_benchmarks()
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizer("rs")
      .add_budget(100)
      .add_seed(1);
  return spec;
}

/// Start the fleet (`setups` times, keeping the last), then run `spec`
/// back to back until `seconds` have passed — or exactly `traced_sweeps`
/// times on traced daemons that exit (flushing their traces) after that
/// many connections.
FleetPhase run_fleet_phase(const RunConfig& config, const SweepSpec& spec,
                           double seconds, int setups,
                           std::size_t traced_sweeps, const std::string& tag) {
  FleetPhase phase;
  const bool traced = traced_sweeps > 0;
  std::vector<std::unique_ptr<Daemon>> daemons;
  std::vector<std::string> hosts;
  for (int s = 0; s < setups; ++s) {
    daemons.clear();  // kills a previous setup's fleet
    hosts.clear();
    const double t0 = now_seconds();
    for (std::size_t h = 0; h < kFleetHosts; ++h) {
      const auto name = tag + "-workerd" + std::to_string(h);
      std::vector<std::string> args = {"--port=0", "--threads=2"};
      if (traced) {
        phase.traces.worker_traces.push_back(
            work_file(config, name + "-trace.json"));
        args.push_back("--trace=" + phase.traces.worker_traces.back());
        args.push_back("--max-conns=" + std::to_string(traced_sweeps));
      }
      daemons.push_back(std::make_unique<Daemon>(
          PERFBENCH_WORKERD, args, work_file(config, name + ".log")));
    }
    for (auto& daemon : daemons) {
      (void)daemon->wait_port(10.0);
      hosts.push_back(daemon->endpoint());
    }
    if (!traced) (void)Scheduler(scheduler_options(hosts)).run(warmup_grid());
    phase.setup_s.push_back(now_seconds() - t0);
  }

  const Scheduler scheduler(scheduler_options(hosts));
  if (traced) obs::start_tracing();
  const double start = now_seconds();
  do {
    const double t0 = now_seconds();
    phase.sweeps.push_back(scheduler.run(spec));
    phase.sweep_s.push_back(now_seconds() - t0);
  } while (traced ? phase.sweeps.size() < traced_sweeps
                  : now_seconds() - start < seconds);
  if (traced) {
    obs::stop_tracing();
    phase.traces.scheduler_trace = work_file(config, tag + "-sched-trace.json");
    obs::write_chrome_trace_file(phase.traces.scheduler_trace);
  }
  for (const auto& daemon : daemons)
    phase.rss_mb = std::max(phase.rss_mb, daemon->peak_rss_mb());
  for (auto& daemon : daemons)
    if (traced && !daemon->wait_exit(15.0)) ++phase.hung_daemons;
  return phase;
}

/// Check every cell of every sweep against one in-process BatchEngine
/// reference (computed after the fleet is down).
void verify_fleet_phase(const FleetPhase& phase, const SweepSpec& spec,
                        const RunConfig& config, Report& report) {
  BatchOptions options;
  options.workers = 4;
  auto reference = BatchEngine(options).run(spec);
  if (config.inject_wrong_reference)
    for (auto& cell : reference) corrupt(cell);
  for (std::size_t i = 0; i < phase.hung_daemons; ++i) {
    report.notes.push_back("phonoc_workerd hung after its sweeps; killed");
    report.count(false);
  }
  for (const auto& sweep : phase.sweeps) {
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const bool present = i < sweep.results.size();
      const bool ok = present && sweep.results[i].status == CellStatus::Ok;
      const bool correct = !ok || identical_cells(sweep.results[i], reference[i]);
      if (!ok)
        report.notes.push_back("fleet cell " + std::to_string(i) + ": " +
                               (present ? sweep.results[i].error : "missing"));
      report.count(ok, correct);
    }
  }
}

/// sched.* per-layer metrics: per-sweep medians of the fleet ledger.
void report_sched_layers(const FleetPhase& phase, Report& report) {
  std::vector<double> busy, shards, steals, retries, speculations, duplicates;
  for (const auto& sweep : phase.sweeps) {
    double cpu = 0.0;
    double capacity = 0.0;
    double counts[5] = {0, 0, 0, 0, 0};
    for (const auto& host : sweep.hosts) {
      cpu += host.cpu_seconds;
      capacity += static_cast<double>(host.capacity);
      counts[0] += static_cast<double>(host.shards);
      counts[1] += static_cast<double>(host.steals);
      counts[2] += static_cast<double>(host.retries);
      counts[3] += static_cast<double>(host.speculations);
      counts[4] += static_cast<double>(host.duplicates);
    }
    busy.push_back(cpu / std::max(1e-9, sweep.wall_seconds * capacity));
    shards.push_back(counts[0]);
    steals.push_back(counts[1]);
    retries.push_back(counts[2]);
    speculations.push_back(counts[3]);
    duplicates.push_back(counts[4]);
  }
  const auto n = phase.sweeps.size();
  report.set("sched.busy_frac", median(busy), "ratio", n);
  report.set("sched.shards", median(shards), "count", n);
  report.set("sched.steals", median(steals), "count", n);
  report.set("sched.retries", median(retries), "count", n);
  report.set("sched.speculations", median(speculations), "count", n);
  report.set("sched.duplicates", median(duplicates), "count", n);
  report.sched_traces.push_back(phase.traces);
}

/// The parallel_sweep grid: 8 apps x mesh/torus x SNR/loss x rs/ga/rpbla
/// x 2 seeds = 192 cells at 2000 evaluations.
SweepSpec fleet_grid(std::uint64_t seed) {
  const std::uint64_t first = 1 + mix_seed(seed, 7) % 1000000;
  SweepSpec spec;
  spec.add_all_benchmarks()
      .add_topology(TopologyKind::Mesh)
      .add_topology(TopologyKind::Torus)
      .add_goal(OptimizationGoal::Snr)
      .add_goal(OptimizationGoal::InsertionLoss)
      .add_optimizers({"rs", "ga", "rpbla"})
      .add_budget(kFleetEvals)
      .add_seed_range(first, 2);
  return spec;
}

}  // namespace

void sched_probe(const RunConfig& config, const SweepSpec& spec,
                 Report& report) {
  const auto phase = run_fleet_phase(config, spec, 0.0, 1, 1, "sched-probe");
  verify_fleet_phase(phase, spec, config, report);
  report_sched_layers(phase, report);
}

void run_fleet_workload(const RunConfig& config, Report& report) {
  const SweepSpec spec = fleet_grid(config.seed);
  const double cells = static_cast<double>(cell_count(spec));
  const auto sweep_evals = [](const ScheduleResult& sweep) {
    double evaluations = 0.0;
    for (const auto& cell : sweep.results)
      if (cell.status == CellStatus::Ok)
        evaluations += static_cast<double>(cell.run.search.evaluations);
    return evaluations;
  };

  if (!config.trace) {
    const auto phase = run_fleet_phase(config, spec, config.seconds, 3, 0,
                                       "fleet");
    verify_fleet_phase(phase, spec, config, report);
    std::vector<double> sweep_ms, sweep_rates, cell_rates, eval_rates;
    for (std::size_t i = 0; i < phase.sweeps.size(); ++i) {
      sweep_ms.push_back(phase.sweep_s[i] * 1e3);
      sweep_rates.push_back(1.0 / phase.sweep_s[i]);
      cell_rates.push_back(cells / phase.sweep_s[i]);
      eval_rates.push_back(sweep_evals(phase.sweeps[i]) / phase.sweep_s[i]);
    }
    const auto n = phase.sweeps.size();
    report.set("setup_s", median(phase.setup_s), "s", phase.setup_s.size());
    report.set("req_p50_ms", quantile(sweep_ms, 0.50), "ms", n);
    report.set("req_p99_ms", quantile(sweep_ms, 0.99), "ms", n);
    report.set("req_per_s", quantile(sweep_rates, kRateQuantile), "1/s", n);
    report.set("cells_per_s", quantile(cell_rates, kRateQuantile), "1/s", n);
    report.set("evals_per_s", quantile(eval_rates, kRateQuantile), "1/s", n);
    report.set("peak_rss_mb", phase.rss_mb, "MB", kFleetHosts);
    return;
  }

  const auto plain = run_fleet_phase(config, spec, config.seconds / 2, 1, 0,
                                     "fleet");
  const double plain_s = median(plain.sweep_s);
  const auto sweeps = static_cast<std::size_t>(
      std::max(1.0, std::floor(config.seconds / 2 / plain_s)));
  const auto traced =
      run_fleet_phase(config, spec, 0.0, 1, sweeps, "fleet-traced");
  verify_fleet_phase(plain, spec, config, report);
  verify_fleet_phase(traced, spec, config, report);
  report_sched_layers(traced, report);
  std::vector<double> cell_ms;
  for (const auto& sweep : traced.sweeps)
    for (const auto& cell : sweep.results)
      if (cell.status == CellStatus::Ok) cell_ms.push_back(cell.seconds * 1e3);
  report.set("exec.cell_ms_p50", median(cell_ms), "ms", cell_ms.size());
  report.set("exec.cell_ms_max", max_of(cell_ms), "ms", cell_ms.size());
  report.set("obs.trace_overhead_frac", median(traced.sweep_s) / plain_s - 1.0,
             "ratio", traced.sweeps.size());

  // Probes: one cell per app (mesh, SNR, first seed), cycling rs/ga/rpbla.
  const auto grid = expand(spec);
  const auto problems = build_sweep_problems(spec, grid);
  std::vector<ServiceRequest> requests;
  std::vector<ProbeCell> cells_probe;
  for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
    const SweepCell& cell = grid[grid_index(spec, w, 0, 0, w % 3, 0, 0)];
    requests.push_back(single_cell_request(spec, cell, "pool"));
    cells_probe.push_back(ProbeCell{
        problems.at({cell.workload, cell.topology, cell.goal}),
        spec.optimizers[cell.optimizer], spec.topologies[0].kind,
        resolved_side(spec, cell.workload, 0), kFleetEvals,
        spec.seeds[cell.seed]});
  }
  service_probe(config, requests, report);
  layer_probe(cells_probe, report);
}

}  // namespace perfbench
