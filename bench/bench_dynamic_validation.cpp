/// \file bench_dynamic_validation.cpp
/// \brief Ablation A4 — static worst case vs dynamic reality.
///
/// The paper's objectives are static worst-case bounds (every CG edge
/// simultaneously lit). This harness runs the event-driven circuit-
/// switched simulator on each benchmark, for a random and an optimized
/// mapping, and reports how the dynamically observed per-transmission
/// SNR distribution sits relative to the static bound — quantifying the
/// bound's conservatism — together with latency/throughput, showing that
/// SNR-optimized mappings do not wreck network performance.

#include <iostream>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "io/table_writer.hpp"
#include "model/evaluation.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "workloads/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace phonoc;
  const CliOptions cli(argc, argv);
  OptimizerBudget budget;
  budget.max_evaluations = cli.get_uint<std::uint64_t>(
      "evals", static_cast<std::uint64_t>(env_int(
                   "PHONOC_ABLATION_EVALS",
                   full_scale_requested() ? 20000 : 3000)));
  SimulationOptions sim;
  sim.duration_ns = cli.get_double(
      "duration-ns", full_scale_requested() ? 500000.0 : 100000.0);
  sim.arrivals_per_us = cli.get_double("load", 2.0);
  sim.seed = cli.get_uint<std::uint64_t>("seed", 1);
  const auto seed = sim.seed;
  Timer timer;

  std::cout << "# A4: static worst-case bound vs dynamic circuit-switched "
               "simulation\n# (load "
            << sim.arrivals_per_us << " tx/us/edge, "
            << sim.duration_ns / 1000.0 << " us horizon)\n\n";

  TableWriter table({"application", "mapping", "static SNR_wc dB",
                     "sim worst dB", "sim mean dB", "wait ns (mean)",
                     "goodput Gbit/s", "link util %"});

  for (const auto& app : benchmark_names()) {
    ExperimentSpec spec;
    spec.benchmark = app;
    spec.goal = OptimizationGoal::Snr;
    const auto problem = make_experiment(spec);
    const Engine engine(problem);

    OptimizerBudget one;
    one.max_evaluations = 1;
    const auto random_run = engine.run("rs", one, seed);
    const auto optimized_run = engine.run("rpbla", budget, seed);

    const auto report = [&](const char* label, const Mapping& mapping) {
      const auto static_eval = evaluate_mapping(
          problem.network(), problem.cg(), mapping.assignment());
      const auto dynamic =
          simulate(problem.network(), problem.cg(), mapping, sim);
      table.add_row(
          {app, label, format_fixed(static_eval.worst_snr_db, 2),
           format_fixed(dynamic.worst_snr_db, 2),
           format_fixed(dynamic.snr_db.mean(), 2),
           format_fixed(dynamic.wait_ns.mean(), 1),
           format_fixed(dynamic.delivered_gbps, 2),
           format_fixed(dynamic.mean_link_utilization * 100.0, 1)});
    };
    report("random", random_run.search.best);
    report("optimized", optimized_run.search.best);
  }
  std::cout << table.to_ascii();
  std::cout << "\n# invariant (asserted by the test suite): sim worst >= "
               "static SNR_wc — the paper's\n# bound is safe; the gap "
               "measures its conservatism under realistic co-activation.\n";
  std::cout << "# total time: " << format_fixed(timer.elapsed_seconds(), 1)
            << " s\n";
  return 0;
}
