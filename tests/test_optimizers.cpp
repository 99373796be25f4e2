// Tests for the optimization strategies. Most use a cheap synthetic
// fitness (negative displacement from the identity layout) whose global
// optimum is known, so convergence and budget behaviour are testable
// without a network model.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "mapping/annealing.hpp"
#include "mapping/exhaustive.hpp"
#include "mapping/genetic.hpp"
#include "mapping/optimizer.hpp"
#include "mapping/random_search.hpp"
#include "mapping/registry.hpp"
#include "mapping/rpbla.hpp"
#include "mapping/tabu.hpp"
#include "util/error.hpp"

namespace phonoc {
namespace {

/// Fitness 0 at the identity mapping, negative elsewhere.
class DisplacementFitness final : public FitnessFunction {
 public:
  double evaluate(const Mapping& mapping) override {
    ++calls;
    double penalty = 0.0;
    for (NodeId t = 0; t < mapping.task_count(); ++t) {
      const double d = static_cast<double>(mapping.tile_of(t)) -
                       static_cast<double>(t);
      penalty += std::abs(d);
    }
    return -penalty;
  }
  std::uint64_t calls = 0;
};

OptimizerBudget evals(std::uint64_t n) {
  OptimizerBudget budget;
  budget.max_evaluations = n;
  return budget;
}

// --- SearchState ----------------------------------------------------------------

TEST(SearchState, TracksIncumbentAndTrace) {
  DisplacementFitness fitness;
  SearchState state(fitness, 3, 4, evals(100), 1);
  EXPECT_FALSE(state.has_best());
  const auto worse = Mapping::from_assignment({3, 1, 0}, 4);
  const auto better = Mapping::identity(3, 4);
  state.evaluate(worse);
  EXPECT_TRUE(state.has_best());
  state.evaluate(better);
  EXPECT_DOUBLE_EQ(state.best_fitness(), 0.0);
  EXPECT_TRUE(state.best() == better);
  const auto result = state.finish(7);
  EXPECT_EQ(result.evaluations, 2u);
  EXPECT_EQ(result.iterations, 7u);
  ASSERT_EQ(result.trace.size(), 2u);
  EXPECT_LT(result.trace[0].fitness, result.trace[1].fitness);
  EXPECT_EQ(result.trace[1].evaluation, 2u);
}

TEST(SearchState, BudgetExhaustion) {
  DisplacementFitness fitness;
  SearchState state(fitness, 2, 4, evals(3), 1);
  Rng rng(1);
  EXPECT_FALSE(state.exhausted());
  for (int i = 0; i < 3; ++i)
    state.evaluate(Mapping::random(2, 4, rng));
  EXPECT_TRUE(state.exhausted());
}

TEST(SearchState, RejectsBadConfigs) {
  DisplacementFitness fitness;
  EXPECT_THROW(SearchState(fitness, 5, 4, evals(10), 1), InvalidArgument);
  OptimizerBudget empty;
  empty.max_evaluations = 0;
  EXPECT_THROW(SearchState(fitness, 2, 4, empty, 1), InvalidArgument);
}

// --- crossover operators -----------------------------------------------------------

bool is_permutation_of_n(const std::vector<TileId>& v) {
  std::set<TileId> seen(v.begin(), v.end());
  return seen.size() == v.size() && *seen.begin() == 0 &&
         *seen.rbegin() == v.size() - 1;
}

class CrossoverSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossoverSweep, ChildrenAreValidPermutations) {
  Rng rng(GetParam());
  const std::size_t n = 10;
  std::vector<TileId> a(n), b(n);
  for (TileId i = 0; i < n; ++i) a[i] = b[i] = i;
  rng.shuffle(a);
  rng.shuffle(b);
  for (int trial = 0; trial < 20; ++trial) {
    auto lo = static_cast<std::size_t>(rng.next_below(n));
    auto hi = static_cast<std::size_t>(rng.next_below(n));
    if (lo > hi) std::swap(lo, hi);
    const auto pmx = pmx_crossover(a, b, lo, hi);
    const auto ox = ox_crossover(a, b, lo, hi);
    ASSERT_TRUE(is_permutation_of_n(pmx));
    ASSERT_TRUE(is_permutation_of_n(ox));
    // Both operators preserve the parent-A segment in place.
    for (std::size_t i = lo; i <= hi; ++i) {
      EXPECT_EQ(pmx[i], a[i]);
      EXPECT_EQ(ox[i], a[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossoverSweep,
                         ::testing::Values(1, 2, 3, 11, 99));

TEST(Crossover, FullRangeCopiesParentA) {
  const std::vector<TileId> a{3, 1, 0, 2};
  const std::vector<TileId> b{0, 1, 2, 3};
  EXPECT_EQ(pmx_crossover(a, b, 0, 3), a);
  EXPECT_EQ(ox_crossover(a, b, 0, 3), a);
}

TEST(Crossover, RejectsMismatchedInputs) {
  const std::vector<TileId> a{0, 1, 2};
  const std::vector<TileId> b{0, 1};
  EXPECT_THROW(pmx_crossover(a, b, 0, 1), InvalidArgument);
  EXPECT_THROW(ox_crossover(a, a, 2, 1), InvalidArgument);
  EXPECT_THROW(pmx_crossover(a, a, 0, 5), InvalidArgument);
}

// --- common optimizer behaviour (parameterized over all registered) ----------------

class OptimizerSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(OptimizerSweep, RespectsEvaluationBudget) {
  DisplacementFitness fitness;
  const auto optimizer = make_optimizer(GetParam());
  const auto result = optimizer->optimize(fitness, 4, 9, evals(200), 3);
  EXPECT_LE(result.evaluations, 220u);  // small overshoot allowed per loop
  EXPECT_EQ(result.evaluations, fitness.calls);
  EXPECT_GE(result.evaluations, 1u);
}

TEST_P(OptimizerSweep, DeterministicForSameSeed) {
  const auto optimizer = make_optimizer(GetParam());
  DisplacementFitness f1, f2;
  const auto a = optimizer->optimize(f1, 4, 9, evals(300), 42);
  const auto b = optimizer->optimize(f2, 4, 9, evals(300), 42);
  EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
  EXPECT_TRUE(a.best == b.best);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST_P(OptimizerSweep, BestFitnessMatchesBestMapping) {
  const auto optimizer = make_optimizer(GetParam());
  DisplacementFitness fitness;
  const auto result = optimizer->optimize(fitness, 5, 9, evals(400), 7);
  DisplacementFitness check;
  EXPECT_DOUBLE_EQ(check.evaluate(result.best), result.best_fitness);
}

TEST_P(OptimizerSweep, TraceIsMonotoneImproving) {
  const auto optimizer = make_optimizer(GetParam());
  DisplacementFitness fitness;
  const auto result = optimizer->optimize(fitness, 5, 9, evals(400), 11);
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GT(result.trace[i].fitness, result.trace[i - 1].fitness);
    EXPECT_GT(result.trace[i].evaluation, result.trace[i - 1].evaluation);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerSweep,
                         ::testing::Values("rs", "ga", "rpbla", "sa", "tabu",
                                           "exhaustive"));

// --- algorithm-specific behaviour ----------------------------------------------------

TEST(Exhaustive, FindsGlobalOptimumOnTinyInstance) {
  DisplacementFitness fitness;
  const ExhaustiveSearch search;
  // 3 tasks on 4 tiles: 24 assignments; optimum is the identity.
  const auto result = search.optimize(fitness, 3, 4, evals(100), 0);
  EXPECT_DOUBLE_EQ(result.best_fitness, 0.0);
  EXPECT_EQ(result.iterations, 24u);  // complete enumeration
  EXPECT_EQ(result.evaluations, 24u);
}

TEST(Rpbla, ConvergesToGlobalOptimumOnSeparableLandscape) {
  // The displacement landscape has no local minima under tile swaps, so
  // a single R-PBLA descent must reach the global optimum.
  DisplacementFitness fitness;
  const Rpbla rpbla;
  const auto result = rpbla.optimize(fitness, 4, 6, evals(5000), 5);
  EXPECT_DOUBLE_EQ(result.best_fitness, 0.0);
  EXPECT_GE(result.iterations, 1u);  // at least one restart recorded
}

TEST(Rpbla, BeatsRandomSearchOnEqualBudget) {
  DisplacementFitness f1, f2;
  const auto rs_result =
      RandomSearch{}.optimize(f1, 6, 16, evals(2000), 9);
  const auto pbla_result = Rpbla{}.optimize(f2, 6, 16, evals(2000), 9);
  EXPECT_GE(pbla_result.best_fitness, rs_result.best_fitness);
}

TEST(Ga, ImprovesOverItsInitialPopulation) {
  DisplacementFitness fitness;
  GeneticOptions options;
  options.population = 20;
  const GeneticAlgorithm ga(options);
  const auto result = ga.optimize(fitness, 6, 16, evals(2000), 21);
  // First improvement event corresponds to the first individual; the
  // final best must strictly beat a pure first-sample baseline.
  ASSERT_FALSE(result.trace.empty());
  EXPECT_GT(result.best_fitness, result.trace.front().fitness);
}

TEST(Ga, OxVariantWorks) {
  DisplacementFitness fitness;
  GeneticOptions options;
  options.crossover = GeneticOptions::Crossover::Ox;
  const GeneticAlgorithm ga(options);
  const auto result = ga.optimize(fitness, 4, 9, evals(800), 3);
  EXPECT_GE(result.best_fitness, -20.0);
}

TEST(Ga, RejectsBadOptions) {
  GeneticOptions bad;
  bad.population = 1;
  EXPECT_THROW(GeneticAlgorithm{bad}, InvalidArgument);
  GeneticOptions elites;
  elites.elites = elites.population;
  EXPECT_THROW(GeneticAlgorithm{elites}, InvalidArgument);
  GeneticOptions mutation;
  mutation.mutation_rate = 1.0;
  EXPECT_THROW(GeneticAlgorithm{mutation}, InvalidArgument);
}

TEST(Sa, RejectsBadOptions) {
  AnnealingOptions bad;
  bad.cooling = 1.5;
  EXPECT_THROW(SimulatedAnnealing{bad}, InvalidArgument);
}

TEST(Tabu, RejectsBadOptions) {
  TabuOptions bad;
  bad.tenure = 0;
  EXPECT_THROW(TabuSearch{bad}, InvalidArgument);
}

TEST(Registry, BuiltinsAndErrors) {
  for (const auto* expected : {"rs", "ga", "rpbla", "sa", "tabu",
                               "exhaustive"})
    EXPECT_EQ(make_optimizer(expected)->name(), expected);
  EXPECT_THROW(make_optimizer("gradient_descent"), InvalidArgument);
}

TEST(TimeBudget, StopsOnWallClock) {
  DisplacementFitness fitness;
  OptimizerBudget budget;
  budget.max_evaluations = 0;  // unlimited
  budget.max_seconds = 0.05;
  const auto result = RandomSearch{}.optimize(fitness, 4, 9, budget, 1);
  EXPECT_GE(result.evaluations, 1u);
  EXPECT_GE(result.seconds, 0.05);
  EXPECT_LT(result.seconds, 5.0);  // terminated promptly
}

}  // namespace
}  // namespace phonoc
