/// \file quickstart.cpp
/// \brief Minimal end-to-end use of the PhoNoCMap public API:
/// map the MPEG-4 decoder onto a 4x4 photonic mesh with the Crux router,
/// optimizing worst-case SNR with the paper's R-PBLA strategy, and
/// compare against a random mapping.
///
/// Usage: quickstart [--benchmark mpeg4] [--goal snr|loss]
///                   [--optimizer rpbla] [--evals 20000] [--seed 1]

#include <iostream>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace phonoc;
  const CliOptions cli(argc, argv);

  ExperimentSpec spec;
  spec.benchmark = cli.get_or("benchmark", "mpeg4");
  spec.goal = cli.get_or("goal", "snr") == "loss"
                  ? OptimizationGoal::InsertionLoss
                  : OptimizationGoal::Snr;
  const auto problem = make_experiment(spec);

  std::cout << "PhoNoCMap quickstart\n";
  std::cout << "application : " << problem.cg().name() << " ("
            << problem.cg().task_count() << " tasks, "
            << problem.cg().communication_count() << " communications)\n";
  std::cout << "architecture: " << problem.network().topology().name()
            << " + " << problem.network().router().name() << " router + "
            << problem.network().routing().name() << " routing\n";
  std::cout << "objective   : maximize worst-case "
            << to_string(spec.goal) << "\n\n";

  OptimizerBudget budget;
  budget.max_evaluations = cli.get_uint<std::uint64_t>("evals", 20000);
  const auto seed = cli.get_uint<std::uint64_t>("seed", 1);

  const Engine engine(problem);
  const auto baseline = engine.run("rs", budget, seed);
  std::cout << "baseline  " << summarize_run(baseline) << '\n';
  const auto tuned =
      engine.run(cli.get_or("optimizer", "rpbla"), budget, seed);
  std::cout << "optimized " << summarize_run(tuned) << "\n\n";
  std::cout << "best mapping (" << tuned.algorithm << "):\n"
            << render_mapping(problem.network().topology(), problem.cg(),
                              tuned.search.best);
  return 0;
}
