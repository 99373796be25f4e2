/// \file bench_scalability.cpp
/// \brief Experiment E5 — the paper's scalability statements (§I, §III):
/// worst-case loss and crosstalk grow with network size, edge-dense
/// applications fare worse than sparse ones of the same size, and
/// mapping optimization extends the feasible network size under the
/// laser power budget.
///
/// Part 1: per-benchmark optimized metrics vs grid size / edge count
/// (explains the DVOPD-worst / MPEG-4-worse-than-sparse observations).
/// Part 2: mesh-side sweep with full-occupancy synthetic workloads,
/// comparing random vs optimized mappings and reporting the laser-power
/// feasibility verdict for each size.
///
/// Both parts run as BatchEngine sweeps (--workers=N, default all
/// hardware threads; 1 reproduces the sequential protocol cell for
/// cell). Part 2 exploits the auto-sizing rule: a side*side-task random
/// workload on an auto-sized mesh occupies every tile.

#include <iostream>

#include "exec/batch_engine.hpp"
#include "exec/sweep.hpp"
#include "io/table_writer.hpp"
#include "model/power_budget.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/generator.hpp"

int main(int argc, char** argv) {
  using namespace phonoc;
  const CliOptions cli(argc, argv);
  OptimizerBudget budget;
  budget.max_evaluations = cli.get_uint<std::uint64_t>(
      "evals", env_uint<std::uint64_t>("PHONOC_SCALE_EVALS",
                                       full_scale_requested() ? 40000 : 4000));
  const auto seed = cli.get_uint<std::uint64_t>("seed", 1);
  const auto max_side = cli.get_uint<std::uint32_t>(
      "max-side", full_scale_requested() ? 8 : 7);
  const auto workers = cli.get_uint<std::size_t>("workers", 0);
  const BatchEngine engine({.workers = workers});
  Timer timer;

  std::cout << "# E5 part 1: optimized worst-case metrics vs application "
               "size/density (mesh + Crux, R-PBLA, "
            << engine.worker_count() << " workers)\n\n";
  SweepSpec apps_spec;
  apps_spec.add_all_benchmarks()
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::InsertionLoss)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizer("rpbla")
      .add_seed(seed);
  apps_spec.budgets.push_back(budget);
  const auto apps_results = engine.run(apps_spec);

  TableWriter apps({"application", "tasks", "edges", "grid", "best loss dB",
                    "best SNR dB"});
  for (std::size_t w = 0; w < apps_spec.workloads.size(); ++w) {
    const auto& workload = apps_spec.workloads[w];
    const auto& loss_run =
        apps_results[grid_index(apps_spec, w, 0, 0, 0, 0, 0)].run;
    const auto& snr_run =
        apps_results[grid_index(apps_spec, w, 0, 1, 0, 0, 0)].run;
    const auto side = resolved_side(apps_spec, w, 0);
    apps.add_row({workload.name, std::to_string(workload.cg.task_count()),
                  std::to_string(workload.cg.communication_count()),
                  std::to_string(side) + "x" + std::to_string(side),
                  format_fixed(loss_run.best_evaluation.worst_loss_db, 2),
                  format_fixed(snr_run.best_evaluation.worst_snr_db, 2)});
  }
  std::cout << apps.to_ascii() << '\n';
  std::cout << "# paper shape: worst values on DVOPD (6x6); edge-dense "
               "MPEG-4 (26 edges) worse than the sparse 12-task apps.\n\n";

  std::cout << "# E5 part 2: mesh-side sweep, full-occupancy random "
               "workload; random vs optimized mapping and laser budget "
               "(detector -20 dBm, ceiling 10 dBm, margin 1 dB)\n\n";
  // One workload per side; the auto-sized mesh (side 0) fits each
  // side*side-task workload exactly, giving the full-occupancy diagonal
  // of the (workload x topology) grid without wasted cells.
  const auto make_sweep_spec = [&](std::uint64_t evals) {
    SweepSpec spec;
    for (std::uint32_t side = 3; side <= max_side; ++side)
      spec.add_workload(
          std::to_string(side) + "x" + std::to_string(side),
          random_cg({.tasks = static_cast<std::size_t>(side) * side,
                     .avg_out_degree = 1.6,
                     .min_bandwidth = 16,
                     .max_bandwidth = 256,
                     .seed = 42,
                     .acyclic = true}));
    spec.add_topology(TopologyKind::Mesh)
        .add_goal(OptimizationGoal::InsertionLoss)
        .add_seed(seed);
    spec.add_budget(evals);
    return spec;
  };
  // Random mapping baseline = a single-sample "search".
  auto random_spec = make_sweep_spec(1);
  random_spec.add_optimizer("rs");
  auto optimized_spec = make_sweep_spec(budget.max_evaluations);
  optimized_spec.add_optimizer("rpbla");
  const auto random_results = engine.run(random_spec);
  const auto optimized_results = engine.run(optimized_spec);

  TableWriter sweep({"mesh", "tasks", "random loss dB", "optimized loss dB",
                     "laser random dBm", "laser optimized dBm",
                     "feasible(random)", "feasible(optimized)"});
  for (std::size_t w = 0; w < random_spec.workloads.size(); ++w) {
    const auto side = resolved_side(random_spec, w, 0);
    const double random_loss =
        random_results[w].run.best_evaluation.worst_loss_db;
    const double optimized_loss =
        optimized_results[w].run.best_evaluation.worst_loss_db;
    const auto random_budget = compute_power_budget(random_loss, {});
    const auto optimized_budget = compute_power_budget(optimized_loss, {});
    sweep.add_row(
        {std::to_string(side) + "x" + std::to_string(side),
         std::to_string(side * side), format_fixed(random_loss, 2),
         format_fixed(optimized_loss, 2),
         format_fixed(random_budget.required_power_dbm, 2),
         format_fixed(optimized_budget.required_power_dbm, 2),
         random_budget.feasible ? "yes" : "no",
         optimized_budget.feasible ? "yes" : "no"});
  }
  std::cout << sweep.to_ascii();
  std::cout << "\n# mapping optimization lowers the worst-case loss, hence "
               "the required laser power,\n# enabling larger feasible "
               "networks (the paper's scalability claim).\n";
  std::cout << "# total time: " << format_fixed(timer.elapsed_seconds(), 1)
            << " s\n";
  return 0;
}
