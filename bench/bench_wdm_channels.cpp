/// \file bench_wdm_channels.cpp
/// \brief Extension study — WDM channel count vs worst-case SNR.
///
/// The paper's §I flags multiwavelength operation as a power-budget
/// aggravator; this study shows the other side of the coin: after
/// mapping optimization, assigning mutually-interfering communications
/// to different wavelength channels (greedy interference-graph
/// coloring, model/wavelength.hpp) recovers SNR that no mapping could —
/// at the price of per-channel laser power (reported alongside via the
/// power-budget model).

#include <iostream>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "io/table_writer.hpp"
#include "model/power_budget.hpp"
#include "model/wavelength.hpp"
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
  const auto seed = cli.get_uint<std::uint64_t>("seed", 1);
  WdmOptions base;
  base.inter_channel_isolation_db =
      cli.get_double("isolation", -30.0);
  Timer timer;

  std::cout << "# WDM extension: worst-case SNR vs channel count "
               "(isolation "
            << base.inter_channel_isolation_db
            << " dB, mappings pre-optimized with R-PBLA)\n\n";

  TableWriter table({"application", "1 ch SNR dB", "2 ch", "4 ch", "8 ch",
                     "per-ch power slack dB @8ch"});
  for (const auto& app : benchmark_names()) {
    ExperimentSpec spec;
    spec.benchmark = app;
    spec.goal = OptimizationGoal::Snr;
    const auto problem = make_experiment(spec);
    const auto run = Engine(problem).run("rpbla", budget, seed);
    const auto& mapping = run.search.best;

    std::vector<std::string> row{app};
    double worst_loss = 0.0;
    for (const std::uint32_t channels : {1u, 2u, 4u, 8u}) {
      WdmOptions options = base;
      options.channels = channels;
      const auto wdm =
          assign_wavelengths(problem.network(), problem.cg(),
                             mapping.assignment(), options);
      const auto result =
          evaluate_mapping_wdm(problem.network(), problem.cg(),
                               mapping.assignment(), wdm, options);
      row.push_back(format_fixed(result.worst_snr_db, 2));
      worst_loss = result.worst_loss_db;
    }
    PowerBudgetOptions pb;
    pb.wavelength_channels = 8;
    row.push_back(format_fixed(compute_power_budget(worst_loss, pb).slack_db,
                               2));
    table.add_row(std::move(row));
  }
  std::cout << table.to_ascii();
  std::cout << "\n# reading: channels buy SNR where mapping alone has "
               "exhausted its freedom (dense apps),\n# while the "
               "per-channel power ceiling (paper §I) tightens — the "
               "trade-off the tool exposes.\n";
  std::cout << "# total time: " << format_fixed(timer.elapsed_seconds(), 1)
            << " s\n";
  return 0;
}
