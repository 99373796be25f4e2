/// \file bench_algo_ablation.cpp
/// \brief Ablation A3 — optimizer design choices.
///
/// Three sweeps on a fixed problem (VOPD, 4x4 mesh, SNR objective,
/// equal budgets):
///   1. GA hyper-parameters: population size, crossover operator,
///      mutation rate.
///   2. R-PBLA restart policy: with/without the empty-pair pruning.
///   3. The extension strategies (SA, tabu, greedy) against the paper's
///      trio, showing where the paper's R-PBLA sits in a wider field.

#include <iostream>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "io/table_writer.hpp"
#include "mapping/genetic.hpp"
#include "mapping/rpbla.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace phonoc;
  const CliOptions cli(argc, argv);
  OptimizerBudget budget;
  budget.max_evaluations = cli.get_uint<std::uint64_t>(
      "evals", static_cast<std::uint64_t>(env_int(
                   "PHONOC_ABLATION_EVALS",
                   full_scale_requested() ? 30000 : 5000)));
  const auto seed = cli.get_uint<std::uint64_t>("seed", 1);
  const auto app = cli.get_or("benchmark", "vopd");
  Timer timer;

  ExperimentSpec spec;
  spec.benchmark = app;
  spec.goal = OptimizationGoal::Snr;
  const auto problem = make_experiment(spec);
  const Engine engine(problem);

  std::cout << "# A3: optimizer ablations on " << app << " (mesh, SNR, "
            << budget.max_evaluations << " evaluations each)\n\n";

  std::cout << "## GA hyper-parameters\n";
  TableWriter ga_table({"population", "crossover", "mutation", "SNR dB",
                        "generations"});
  for (const std::size_t population : {16u, 64u, 128u}) {
    for (const auto crossover : {GeneticOptions::Crossover::Pmx,
                                 GeneticOptions::Crossover::Ox}) {
      GeneticOptions options;
      options.population = population;
      options.crossover = crossover;
      const GeneticAlgorithm ga(options);
      const auto run = engine.run(ga, budget, seed);
      ga_table.add_row(
          {std::to_string(population),
           crossover == GeneticOptions::Crossover::Pmx ? "PMX" : "OX",
           format_fixed(options.mutation_rate, 2),
           format_fixed(run.best_evaluation.worst_snr_db, 2),
           std::to_string(run.search.iterations)});
    }
  }
  for (const double mutation : {0.05, 0.6}) {
    GeneticOptions options;
    options.mutation_rate = mutation;
    const GeneticAlgorithm ga(options);
    const auto run = engine.run(ga, budget, seed);
    ga_table.add_row({std::to_string(options.population), "PMX",
                      format_fixed(mutation, 2),
                      format_fixed(run.best_evaluation.worst_snr_db, 2),
                      std::to_string(run.search.iterations)});
  }
  std::cout << ga_table.to_ascii() << '\n';

  std::cout << "## R-PBLA move-list pruning\n";
  TableWriter pbla_table({"skip empty pairs", "SNR dB", "restarts"});
  for (const bool skip : {true, false}) {
    RpblaOptions options;
    options.skip_empty_pairs = skip;
    const Rpbla rpbla(options);
    const auto run = engine.run(rpbla, budget, seed);
    pbla_table.add_row({skip ? "yes" : "no",
                        format_fixed(run.best_evaluation.worst_snr_db, 2),
                        std::to_string(run.search.iterations)});
  }
  std::cout << pbla_table.to_ascii() << '\n';

  std::cout << "## Strategy field (equal budgets)\n";
  TableWriter field({"strategy", "SNR dB", "loss dB of that mapping",
                     "improvements"});
  for (const auto* name : {"rs", "ga", "rpbla", "sa", "tabu", "greedy"}) {
    const auto run = engine.run(name, budget, seed);
    field.add_row({name, format_fixed(run.best_evaluation.worst_snr_db, 2),
                   format_fixed(run.best_evaluation.worst_loss_db, 2),
                   std::to_string(run.search.trace.size())});
  }
  std::cout << field.to_ascii();
  std::cout << "\n# total time: " << format_fixed(timer.elapsed_seconds(), 1)
            << " s\n";
  return 0;
}
