/// \file phonocmap_tool.cpp
/// \brief The full command-line tool, mirroring the original PhoNoCMap
/// workflow: application description in, architecture description in,
/// optimized mapping + report out.
///
/// Usage:
///   phonocmap_tool --benchmark vopd [options]
///   phonocmap_tool --cg app.cg --arch arch.txt [options]
///
/// Options:
///   --cg <file>          communication graph file (see io/cg_io.hpp)
///   --benchmark <name>   built-in application instead of --cg
///   --arch <file>        architecture description (see io/arch_io.hpp);
///                        defaults to the smallest square mesh + Crux + XY
///   --objective snr|loss optimization goal           [snr]
///   --optimizer <name>   rs|ga|rpbla|sa|tabu|greedy  [rpbla]
///   --evals <n>          evaluation budget           [10000]
///   --seconds <s>        wall-clock budget (overrides --evals)
///   --seed <n>           RNG seed                    [1]
///   --csv <file>         write per-communication metrics as CSV
///   --save-cg <file>     write the (built-in) CG out in the text format
///   --quiet              suppress the mapping grid

#include <fstream>
#include <iostream>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "io/arch_io.hpp"
#include "io/cg_io.hpp"
#include "io/csv.hpp"
#include "topology/mesh.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workloads/benchmarks.hpp"

namespace {

using namespace phonoc;

int run_tool(const CliOptions& cli) {
  // --- application ---------------------------------------------------------
  CommGraph cg = cli.has("cg") ? read_cg_file(*cli.get("cg"))
                               : make_benchmark(cli.get_or("benchmark",
                                                           "mpeg4"));
  if (cli.has("save-cg")) write_cg_file(*cli.get("save-cg"), cg);

  // --- architecture ----------------------------------------------------------
  ArchitectureSpec arch;
  if (cli.has("arch")) {
    arch = read_architecture_file(*cli.get("arch"));
  } else {
    arch.rows = arch.cols = square_side_for(cg.task_count());
  }
  const auto network = build_network(arch);

  // --- problem & search --------------------------------------------------------
  const auto goal = to_lower(cli.get_or("objective", "snr")) == "loss"
                        ? OptimizationGoal::InsertionLoss
                        : OptimizationGoal::Snr;
  MappingProblem problem(std::move(cg), network, make_objective(goal));

  OptimizerBudget budget;
  budget.max_evaluations = cli.get_uint<std::uint64_t>("evals", 10000);
  if (cli.has("seconds")) {
    budget.max_evaluations = 0;
    budget.max_seconds = cli.get_double("seconds", 1.0);
  }

  std::cout << "PhoNoCMap: " << problem.cg().name() << " ("
            << problem.cg().task_count() << " tasks, "
            << problem.cg().communication_count() << " communications) on "
            << problem.network().topology().name() << " / "
            << problem.network().router().name() << " / "
            << problem.network().routing().name() << ", objective "
            << problem.objective().name() << "\n\n";

  const Engine engine(problem);
  const auto result =
      engine.run(cli.get_or("optimizer", "rpbla"), budget,
                 cli.get_uint<std::uint64_t>("seed", 1));

  if (cli.get_bool("quiet", false)) {
    std::cout << summarize_run(result) << '\n';
  } else {
    std::cout << describe_best(problem, result);
  }

  // --- optional CSV export -------------------------------------------------------
  if (cli.has("csv")) {
    std::ofstream out(*cli.get("csv"));
    require(static_cast<bool>(out),
            "cannot write CSV file '" + *cli.get("csv") + "'");
    CsvWriter csv(out);
    csv.header({"src", "dst", "bandwidth_mbps", "loss_db", "snr_db"});
    const auto edges = problem.cg().edges();
    for (const auto& em : result.best_evaluation.edges) {
      const auto& e = edges[em.edge];
      csv.row({problem.cg().task_name(e.src), problem.cg().task_name(e.dst),
               format_fixed(e.bandwidth_mbps, 1),
               format_fixed(em.loss_db, 4), format_fixed(em.snr_db, 3)});
    }
    std::cout << "\nper-communication metrics written to "
              << *cli.get("csv") << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_tool(CliOptions(argc, argv));
  } catch (const Error& e) {
    std::cerr << "phonocmap_tool: " << e.what() << '\n';
    return 1;
  }
}
