/// \file bench_router_ablation.cpp
/// \brief Ablation A1 — router microarchitecture choice.
///
/// The paper's methodology treats the optical router as a swappable
/// library component. This harness quantifies what that choice costs:
/// for each built-in router (Crux reconstruction, full matrix crossbar,
/// XY-restricted crossbar, PPSE-based parallel router) it reports the
/// structural inventory, the per-connection loss envelope, the
/// network-level worst path loss, and the optimized mapping quality on
/// a representative application (VOPD, 4x4 mesh).

#include <iostream>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "io/table_writer.hpp"
#include "router/registry.hpp"
#include "router/router_model.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "workloads/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace phonoc;
  const CliOptions cli(argc, argv);
  OptimizerBudget budget;
  budget.max_evaluations = cli.get_uint<std::uint64_t>(
      "evals", env_uint<std::uint64_t>("PHONOC_ABLATION_EVALS",
                                       full_scale_requested() ? 30000 : 4000));
  const auto seed = cli.get_uint<std::uint64_t>("seed", 1);
  const auto app = cli.get_or("benchmark", "vopd");
  Timer timer;

  std::cout << "# A1: router microarchitecture ablation (" << app
            << ", mesh, R-PBLA, " << budget.max_evaluations
            << " evaluations per objective)\n\n";

  TableWriter structure({"router", "rings", "crossings", "connections",
                         "best conn dB", "worst conn dB"});
  TableWriter quality({"router", "network worst path dB", "best loss dB",
                       "best SNR dB"});

  for (const auto* router_name : {"crux", "xy_crossbar", "crossbar",
                                  "parallel"}) {
    const RouterModel model(make_router_netlist(router_name),
                            PhysicalParameters::paper_defaults());
    double best_conn = -1e9;
    for (std::size_t c = 0; c < model.connection_count(); ++c)
      best_conn = std::max(best_conn, model.connection_loss_db(c));
    structure.add_row({router_name,
                       std::to_string(model.netlist().ring_count()),
                       std::to_string(model.netlist().crossing_count()),
                       std::to_string(model.connection_count()),
                       format_fixed(best_conn, 3),
                       format_fixed(model.worst_connection_loss_db(), 3)});

    ExperimentSpec loss_spec;
    loss_spec.benchmark = app;
    loss_spec.router = router_name;
    loss_spec.goal = OptimizationGoal::InsertionLoss;
    const auto loss_problem = make_experiment(loss_spec);
    const auto loss_run = Engine(loss_problem).run("rpbla", budget, seed);
    ExperimentSpec snr_spec = loss_spec;
    snr_spec.goal = OptimizationGoal::Snr;
    const auto snr_problem = make_experiment(snr_spec);
    const auto snr_run = Engine(snr_problem).run("rpbla", budget, seed);
    quality.add_row(
        {router_name,
         format_fixed(loss_problem.network().worst_case_path_loss_db(), 2),
         format_fixed(loss_run.best_evaluation.worst_loss_db, 2),
         format_fixed(snr_run.best_evaluation.worst_snr_db, 2)});
  }

  std::cout << structure.to_ascii() << '\n' << quality.to_ascii();
  std::cout << "\n# expected shape: Crux (12 rings, ring-free straights) "
               "beats the matrix crossbars on loss;\n# the crossbar's "
               "disjoint rows/columns trade loss for fewer in-router "
               "interactions.\n";
  std::cout << "# total time: " << format_fixed(timer.elapsed_seconds(), 1)
            << " s\n";
  return 0;
}
