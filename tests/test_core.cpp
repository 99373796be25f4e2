// Tests for the core layer: problem, evaluator, engine, experiment
// presets, reporting.

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/evaluator.hpp"
#include "core/experiment.hpp"
#include "core/problem.hpp"
#include "core/report.hpp"
#include "util/error.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/generator.hpp"

namespace phonoc {
namespace {

MappingProblem small_problem(OptimizationGoal goal = OptimizationGoal::Snr) {
  ExperimentSpec spec;
  spec.benchmark = "pip";
  spec.goal = goal;
  return make_experiment(spec);
}

TEST(Problem, ValidatesSizeConstraint) {
  // 32-task DVOPD cannot fit a 3x3 grid (Eq. 2).
  ExperimentSpec spec;
  spec.benchmark = "dvopd";
  spec.grid_side = 3;
  EXPECT_THROW(make_experiment(spec), InvalidArgument);
}

TEST(Problem, ExposesComponents) {
  const auto problem = small_problem();
  EXPECT_EQ(problem.task_count(), 8u);
  EXPECT_EQ(problem.tile_count(), 9u);  // 3x3 per the paper sizing rule
  EXPECT_EQ(problem.cg().name(), "pip");
  EXPECT_EQ(problem.objective().name(), "worst_snr");
}

TEST(Experiment, PaperSizingRule) {
  const std::map<std::string, std::size_t> expected_tiles{
      {"pip", 9},   {"mpeg4", 16},   {"vopd", 16},
      {"wavelet", 25}, {"dvopd", 36}, {"263dec_mp3dec", 16}};
  for (const auto& [name, tiles] : expected_tiles) {
    ExperimentSpec spec;
    spec.benchmark = name;
    EXPECT_EQ(make_experiment(spec).tile_count(), tiles) << name;
  }
}

TEST(Experiment, TorusPresetUsesDorRouting) {
  ExperimentSpec spec;
  spec.benchmark = "pip";
  spec.topology = TopologyKind::Torus;
  const auto problem = make_experiment(spec);
  EXPECT_EQ(problem.network().routing().name(), "torus_dor");
  EXPECT_EQ(problem.network().topology().name(), "torus3x3");
  EXPECT_EQ(to_string(TopologyKind::Torus), "torus");
  EXPECT_EQ(to_string(TopologyKind::Mesh), "mesh");
}

TEST(Experiment, RouterOverride) {
  ExperimentSpec spec;
  spec.benchmark = "pip";
  spec.router = "crossbar";
  const auto problem = make_experiment(spec);
  EXPECT_EQ(problem.network().router().name(), "crossbar");
}

TEST(Experiment, MakeNetworkStandalone) {
  const auto net = make_network(TopologyKind::Mesh, 3, "crux");
  EXPECT_EQ(net->tile_count(), 9u);
  EXPECT_LT(net->worst_case_path_loss_db(), 0.0);
}

TEST(Evaluator, CountsAndScores) {
  const auto problem = small_problem();
  Evaluator evaluator(problem);
  const auto mapping = Mapping::identity(8, 9);
  EXPECT_EQ(evaluator.evaluation_count(), 0u);
  const double fitness = evaluator.evaluate(mapping);
  EXPECT_EQ(evaluator.evaluation_count(), 1u);
  // SNR objective: fitness is the worst-case SNR of the mapping.
  const auto detailed = evaluator.evaluate_detailed(mapping);
  EXPECT_DOUBLE_EQ(fitness, detailed.worst_snr_db);
  EXPECT_EQ(detailed.edges.size(), problem.cg().communication_count());
  evaluator.reset_count();
  EXPECT_EQ(evaluator.evaluation_count(), 0u);
}

TEST(Evaluator, LossObjectiveUsesLoss) {
  const auto problem = small_problem(OptimizationGoal::InsertionLoss);
  Evaluator evaluator(problem);
  const auto mapping = Mapping::identity(8, 9);
  EXPECT_DOUBLE_EQ(evaluator.evaluate(mapping),
                   evaluator.evaluate_raw(mapping).worst_loss_db);
}

TEST(Engine, RunsRegisteredOptimizer) {
  const auto problem = small_problem();
  const Engine engine(problem);
  OptimizerBudget budget;
  budget.max_evaluations = 300;
  const auto result = engine.run("rs", budget, 1);
  EXPECT_EQ(result.algorithm, "rs");
  EXPECT_GE(result.search.evaluations, 1u);
  EXPECT_LE(result.best_evaluation.worst_loss_db, 0.0);
  EXPECT_GT(result.best_evaluation.worst_snr_db, 0.0);
  EXPECT_EQ(result.best_evaluation.edges.size(),
            problem.cg().communication_count());
  // The stored best fitness corresponds to the detailed re-evaluation.
  EXPECT_NEAR(result.search.best_fitness,
              result.best_evaluation.worst_snr_db, 1e-9);
}

TEST(Engine, GreedyIsConstructedFromProblem) {
  const auto problem = small_problem();
  const Engine engine(problem);
  OptimizerBudget budget;
  budget.max_evaluations = 500;
  const auto result = engine.run("greedy", budget, 1);
  EXPECT_EQ(result.algorithm, "greedy");
  EXPECT_GT(result.best_evaluation.worst_snr_db, 0.0);
}

TEST(Engine, RunHandlesContextDependentStrategies) {
  // run() resolves "greedy" and "bnb" by construction from the problem
  // and everything else through the registry, so mixed lists work.
  const auto problem = small_problem(OptimizationGoal::InsertionLoss);
  const Engine engine(problem);
  OptimizerBudget budget;
  budget.max_evaluations = 400;
  std::vector<RunResult> results;
  for (const char* name : {"rs", "greedy", "bnb"})
    results.push_back(engine.run(name, budget, 2));
  EXPECT_EQ(results[1].algorithm, "greedy");
  EXPECT_EQ(results[2].algorithm, "bnb");
  for (const auto& r : results)
    EXPECT_LT(r.best_evaluation.worst_loss_db, 0.0);
}

TEST(Engine, RunsAllWithSameBudget) {
  const auto problem = small_problem();
  const Engine engine(problem);
  OptimizerBudget budget;
  budget.max_evaluations = 200;
  const auto rs = engine.run("rs", budget, 5);
  const auto rpbla = engine.run("rpbla", budget, 5);
  EXPECT_EQ(rs.algorithm, "rs");
  EXPECT_EQ(rpbla.algorithm, "rpbla");
  // Identical budgets: the paper's fair-comparison protocol.
  EXPECT_LE(rs.search.evaluations, 220u);
  EXPECT_LE(rpbla.search.evaluations, 220u);
}

TEST(Engine, BranchAndBoundIsConstructedFromProblem) {
  const auto problem = small_problem(OptimizationGoal::InsertionLoss);
  const Engine engine(problem);
  OptimizerBudget budget;
  budget.max_evaluations = 500000;
  const auto bnb = engine.run("bnb", budget, 1);
  EXPECT_EQ(bnb.algorithm, "bnb");
  // On PIP/3x3 the solver completes; its loss must dominate a heuristic.
  OptimizerBudget small;
  small.max_evaluations = 2000;
  const auto rpbla = engine.run("rpbla", small, 1);
  EXPECT_GE(bnb.best_evaluation.worst_loss_db + 1e-9,
            rpbla.best_evaluation.worst_loss_db);
}

TEST(Engine, UnknownOptimizerThrows) {
  const auto problem = small_problem();
  const Engine engine(problem);
  OptimizerBudget budget;
  budget.max_evaluations = 10;
  EXPECT_THROW((void)engine.run("quantum", budget, 1), InvalidArgument);
}

TEST(Report, SummaryAndGridContainTheEssentials) {
  const auto problem = small_problem();
  const Engine engine(problem);
  OptimizerBudget budget;
  budget.max_evaluations = 100;
  const auto result = engine.run("rs", budget, 1);
  const auto summary = summarize_run(result);
  EXPECT_NE(summary.find("rs"), std::string::npos);
  EXPECT_NE(summary.find("worst SNR"), std::string::npos);

  const auto grid = render_mapping(problem.network().topology(),
                                   problem.cg(), result.search.best);
  // 3x3 grid: three lines; one empty tile marker.
  EXPECT_EQ(std::count(grid.begin(), grid.end(), '\n'), 3);
  EXPECT_NE(grid.find('.'), std::string::npos);
  EXPECT_NE(grid.find("hs"), std::string::npos);

  const auto description = describe_best(problem, result);
  EXPECT_NE(description.find("per-communication"), std::string::npos);
  EXPECT_NE(description.find("inp_mem"), std::string::npos);
}

TEST(Workloads, SyntheticProblemEndToEnd) {
  // A generated workload runs through the exact same pipeline.
  auto cg = random_cg({.tasks = 9,
                       .avg_out_degree = 1.5,
                       .min_bandwidth = 8,
                       .max_bandwidth = 64,
                       .seed = 3,
                       .acyclic = true});
  auto network = make_network(TopologyKind::Mesh, 3, "crux");
  MappingProblem problem(std::move(cg), network,
                         make_objective(OptimizationGoal::Snr));
  const Engine engine(problem);
  OptimizerBudget budget;
  budget.max_evaluations = 300;
  const auto result = engine.run("rpbla", budget, 2);
  EXPECT_GT(result.best_evaluation.worst_snr_db, 0.0);
}

}  // namespace
}  // namespace phonoc
