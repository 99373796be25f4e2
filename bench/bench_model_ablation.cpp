/// \file bench_model_ablation.cpp
/// \brief Ablation A2 — crosstalk model fidelity and conflict policy.
///
/// The paper simplifies the analytical model of [6] by dropping
/// intra-router attenuation of the noise (Ki*Li = Ki) and by summing
/// noise over communications without spelling out co-activation
/// feasibility. This harness quantifies both choices: it evaluates the
/// same optimized mappings under (Simplified | Full) fidelity and
/// (Exclude | Ignore) conflict policy and reports the worst-case SNR
/// deltas, i.e. how much accuracy the paper's simplifications trade for
/// model economy.

#include <iostream>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "io/table_writer.hpp"
#include "model/evaluation.hpp"
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
  Timer timer;

  std::cout << "# A2: crosstalk model ablation. Mappings optimized under "
               "the paper model\n# (simplified fidelity, conflict-aware) "
               "re-evaluated under the three variants.\n\n";

  TableWriter table({"application", "paper SNR dB", "full-fidelity SNR dB",
                     "ignore-conflicts SNR dB", "full+ignore SNR dB"});

  for (const auto& app : benchmark_names()) {
    ExperimentSpec spec;
    spec.benchmark = app;
    spec.goal = OptimizationGoal::Snr;
    const auto problem = make_experiment(spec);
    const auto run = Engine(problem).run("rpbla", budget, seed);
    const auto& mapping = run.search.best;

    const auto evaluate_variant = [&](ModelFidelity fidelity,
                                      ConflictPolicy policy) {
      ExperimentSpec variant = spec;
      variant.model_options.fidelity = fidelity;
      variant.model_options.conflict_policy = policy;
      const auto variant_problem = make_experiment(variant);
      return evaluate_mapping(variant_problem.network(),
                              variant_problem.cg(), mapping.assignment())
          .worst_snr_db;
    };

    table.add_row(
        {app, format_fixed(run.best_evaluation.worst_snr_db, 2),
         format_fixed(evaluate_variant(ModelFidelity::Full,
                                       ConflictPolicy::Exclude),
                      2),
         format_fixed(evaluate_variant(ModelFidelity::Simplified,
                                       ConflictPolicy::Ignore),
                      2),
         format_fixed(
             evaluate_variant(ModelFidelity::Full, ConflictPolicy::Ignore),
             2)});
  }
  std::cout << table.to_ascii();
  std::cout << "\n# reading: full fidelity keeps the intra-router terms the "
               "paper drops (slightly less\n# noise -> equal or higher "
               "SNR); ignoring conflicts adds physically impossible "
               "attacker\n# pairs (more noise -> lower SNR). The paper's "
               "model is the conservative middle.\n";
  std::cout << "# total time: " << format_fixed(timer.elapsed_seconds(), 1)
            << " s\n";
  return 0;
}
