/// \file bench_table2_algorithms.cpp
/// \brief Experiment E3/E4 — paper Table II and the §III improvement
/// statements.
///
/// For every application, topology (mesh / torus with the Crux router)
/// and objective (worst-case SNR / worst-case loss), run the three
/// mapping strategies — random search (RS), genetic algorithm (GA) and
/// the paper's R-PBLA — under identical budgets, and print the Table II
/// grid plus the relative-improvement summary the paper quotes
/// (GA over RS, R-PBLA over GA).
///
/// The whole 96-cell grid (8 apps x 2 topologies x 2 objectives x 3
/// algorithms) is declared as one SweepSpec and executed by BatchEngine,
/// which parallelizes across cells with bit-identical results to the
/// sequential protocol (--workers=1 to verify).
///
/// Budgets are evaluation counts by default (deterministic,
/// machine-independent); pass --seconds to reproduce the paper's equal
/// wall-clock protocol instead. PHONOC_TABLE2_EVALS overrides the
/// budget; PHONOC_FULL=1 selects a 10x deeper search.

#include <iostream>
#include <map>

#include "exec/aggregate.hpp"
#include "exec/batch_engine.hpp"
#include "exec/sweep.hpp"
#include "io/table_writer.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "workloads/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace phonoc;
  const CliOptions cli(argc, argv);
  OptimizerBudget budget;
  budget.max_evaluations = cli.get_uint<std::uint64_t>(
      "evals", static_cast<std::uint64_t>(env_int(
                   "PHONOC_TABLE2_EVALS",
                   full_scale_requested() ? 60000 : 12000)));
  if (cli.has("seconds")) {
    budget.max_evaluations = 0;
    budget.max_seconds = cli.get_double("seconds", 1.0);
  }
  const auto seed = cli.get_uint<std::uint64_t>("seed", 1);
  auto workers = cli.get_uint<std::size_t>("workers", 0);
  // The paper's equal wall-clock protocol gives each run the whole
  // machine; concurrent cells would share cores and skew the comparison.
  if (budget.max_seconds > 0.0 && !cli.has("workers")) workers = 1;

  SweepSpec spec;
  spec.add_all_benchmarks()
      .add_topology(TopologyKind::Mesh)
      .add_topology(TopologyKind::Torus)
      .add_goal(OptimizationGoal::Snr)
      .add_goal(OptimizationGoal::InsertionLoss)
      .add_optimizers({"rs", "ga", "rpbla"})
      .add_seed(seed);
  spec.budgets.push_back(budget);

  const BatchEngine engine({.workers = workers});
  if (budget.max_seconds > 0.0 && engine.worker_count() != 1)
    std::cout << "# WARNING: --seconds with " << engine.worker_count()
              << " workers oversubscribes cores; runs no longer get equal "
                 "compute.\n";
  std::cout << "# Table II reproduction: best worst-case SNR (dB) and best "
               "worst-case loss (dB)\n# found by RS / GA / R-PBLA under "
               "identical budgets (";
  if (budget.max_seconds > 0.0)
    std::cout << budget.max_seconds << " s wall-clock";
  else
    std::cout << budget.max_evaluations << " evaluations";
  std::cout << " per run), Crux router.\n# " << cell_count(spec)
            << " cells on " << engine.worker_count() << " worker(s).\n\n";

  Timer timer;
  const auto results = engine.run(spec);

  // Grid coordinates: goals[0] = SNR runs, goals[1] = loss runs.
  const auto metric = [&](std::size_t w, std::size_t t, std::size_t o,
                          std::size_t g) {
    const auto& best =
        results[grid_index(spec, w, t, g, o, 0, 0)].run.best_evaluation;
    return g == 0 ? best.worst_snr_db : best.worst_loss_db;
  };

  TableWriter table({"application", "topology", "RS SNR", "RS Loss",
                     "GA SNR", "GA Loss", "R-PBLA SNR", "R-PBLA Loss"});

  // value[topology][algorithm][goal] -> per-app list, for the summary.
  std::map<std::string, std::map<std::string, std::map<std::string,
           std::vector<double>>>> collected;

  for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
    for (std::size_t t = 0; t < spec.topologies.size(); ++t) {
      std::map<std::string, double> snr;
      std::map<std::string, double> loss;
      for (std::size_t o = 0; o < spec.optimizers.size(); ++o) {
        const auto& algorithm = spec.optimizers[o];
        snr[algorithm] = metric(w, t, o, 0);   // SNR objective run (Eq. 4)
        loss[algorithm] = metric(w, t, o, 1);  // loss objective run (Eq. 3)
        const auto topo_name = to_string(spec.topologies[t].kind);
        collected[topo_name][algorithm]["snr"].push_back(snr[algorithm]);
        collected[topo_name][algorithm]["loss"].push_back(loss[algorithm]);
      }
      table.add_row({spec.workloads[w].name,
                     to_string(spec.topologies[t].kind),
                     format_fixed(snr["rs"], 2), format_fixed(loss["rs"], 2),
                     format_fixed(snr["ga"], 2), format_fixed(loss["ga"], 2),
                     format_fixed(snr["rpbla"], 2),
                     format_fixed(loss["rpbla"], 2)});
    }
  }
  std::cout << table.to_ascii() << '\n';

  // E4: the paper's improvement summary. SNR improvements are relative
  // dB gains; loss improvements compare magnitudes (closer to 0 wins).
  std::cout << "# Improvement summary (mean over the eight applications):\n";
  const auto mean_gain = [&](const std::string& topo, const std::string& a,
                             const std::string& b, const std::string& goal) {
    const auto& va = collected[topo][a][goal];
    const auto& vb = collected[topo][b][goal];
    RunningStats gain;
    for (std::size_t i = 0; i < va.size(); ++i) {
      if (goal == "snr")
        gain.add((va[i] - vb[i]) / std::max(1e-9, std::abs(vb[i])) * 100.0);
      else
        gain.add((std::abs(vb[i]) - std::abs(va[i])) /
                 std::max(1e-9, std::abs(vb[i])) * 100.0);
    }
    return gain.mean();
  };
  TableWriter improvements(
      {"topology", "comparison", "SNR gain %", "Loss gain %"});
  for (const auto* topo : {"mesh", "torus"}) {
    improvements.add_row({topo, "GA vs RS",
                          format_fixed(mean_gain(topo, "ga", "rs", "snr"), 1),
                          format_fixed(mean_gain(topo, "ga", "rs", "loss"),
                                       1)});
    improvements.add_row(
        {topo, "R-PBLA vs GA",
         format_fixed(mean_gain(topo, "rpbla", "ga", "snr"), 1),
         format_fixed(mean_gain(topo, "rpbla", "ga", "loss"), 1)});
  }
  std::cout << improvements.to_ascii();
  std::cout << "\n# paper reference: GA over RS up to 50-60% (SNR) / ~17% "
               "(loss); R-PBLA over GA ~2% (mesh) and ~12% (torus) for SNR, "
               "9-10% for loss.\n";
  const auto report = SweepReport::build(spec, results,
                                         timer.elapsed_seconds());
  std::cout << "# total time: " << format_fixed(report.wall_seconds, 1)
            << " s wall (" << format_fixed(report.cpu_seconds, 1)
            << " s of per-cell work on " << engine.worker_count()
            << " workers)\n";
  return 0;
}
