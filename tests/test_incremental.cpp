// Property tests of the incremental (delta) evaluation layer: across
// random CGs, mesh/ring/torus topologies and both paper objectives, long
// random propose/commit/revert swap sequences must stay bit-identical
// (tolerance 0) to full `evaluate_mapping` re-evaluation — fitness and
// per-edge metrics alike. Also covers the Evaluator's transactional
// move API, the equivalence of complete optimizer runs with the oracle
// (tests/oracle.hpp), the whole-mapping memo's counting contract
// (cache hits must never change the evaluation counts budgets observe),
// and the reuse contract: a warm Evaluator serving run after run
// returns exactly what a fresh one does.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/evaluator.hpp"
#include "core/experiment.hpp"
#include "mapping/mapping.hpp"
#include "mapping/objective.hpp"
#include "model/incremental.hpp"
#include "oracle.hpp"
#include "router/registry.hpp"
#include "router/router_model.hpp"
#include "routing/table_routing.hpp"
#include "topology/ring.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/generator.hpp"

namespace phonoc {
namespace {

std::shared_ptr<const NetworkModel> make_test_network(
    const std::string& topology) {
  if (topology == "ring") {
    auto router = std::make_shared<const RouterModel>(
        make_router_netlist("crux"), PhysicalParameters::paper_defaults());
    const auto topo = build_ring(RingOptions{12, 2.5});
    auto routing = std::make_shared<const TableRouting>(
        TableRouting::shortest_paths(topo));
    return std::make_shared<const NetworkModel>(topo, std::move(router),
                                                std::move(routing),
                                                NetworkModelOptions{});
  }
  const auto kind =
      topology == "torus" ? TopologyKind::Torus : TopologyKind::Mesh;
  return make_network(kind, 4, "crux");
}

std::shared_ptr<const Objective> make_test_objective(const std::string& name) {
  if (name == "worst_loss") return std::make_shared<WorstLossObjective>();
  return std::make_shared<WorstSnrObjective>();
}

MappingProblem make_test_problem(const std::string& topology,
                                 const std::string& objective,
                                 std::uint64_t cg_seed) {
  auto cg = random_cg({.tasks = 10,
                       .avg_out_degree = 1.8,
                       .min_bandwidth = 8,
                       .max_bandwidth = 256,
                       .seed = cg_seed,
                       .acyclic = false});
  auto obj = make_test_objective(objective);
  return MappingProblem(std::move(cg), make_test_network(topology),
                        std::move(obj));
}

/// Bitwise comparison of the kernel-maintained state against a fresh
/// full evaluation of the same assignment. Zero tolerance throughout.
void expect_matches_full(const MappingProblem& problem,
                         const IncrementalEvaluation& kernel,
                         const Mapping& mapping, const std::string& where) {
  const auto full = evaluate_mapping(problem.network(), problem.cg(),
                                     mapping.assignment(), /*detailed=*/true);
  const auto delta = kernel.result(/*detailed=*/true);
  ASSERT_EQ(delta.worst_loss_db, full.worst_loss_db) << where;
  ASSERT_EQ(delta.worst_snr_db, full.worst_snr_db) << where;
  ASSERT_EQ(problem.objective().fitness(delta),
            problem.objective().fitness(full))
      << where;
  ASSERT_EQ(delta.edges.size(), full.edges.size()) << where;
  for (std::size_t e = 0; e < full.edges.size(); ++e) {
    ASSERT_EQ(delta.edges[e].edge, full.edges[e].edge) << where;
    ASSERT_EQ(delta.edges[e].src_tile, full.edges[e].src_tile) << where;
    ASSERT_EQ(delta.edges[e].dst_tile, full.edges[e].dst_tile) << where;
    ASSERT_EQ(delta.edges[e].loss_db, full.edges[e].loss_db) << where;
    ASSERT_EQ(delta.edges[e].signal_gain, full.edges[e].signal_gain) << where;
    ASSERT_EQ(delta.edges[e].noise_gain, full.edges[e].noise_gain) << where;
    ASSERT_EQ(delta.edges[e].snr_db, full.edges[e].snr_db) << where;
  }
}

struct SweepConfig {
  const char* topology;
  const char* objective;
};

std::string PrintConfig(const ::testing::TestParamInfo<SweepConfig>& info) {
  return std::string(info.param.topology) + "_" + info.param.objective;
}

class DeltaEqualsFullSweep : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(DeltaEqualsFullSweep, LongRandomSwapSequenceIsBitIdentical) {
  const auto [topology, objective] = GetParam();
  const auto problem = make_test_problem(topology, objective, 77);
  const auto tiles = problem.tile_count();

  IncrementalEvaluation kernel(problem.network(), problem.cg());
  EXPECT_FALSE(kernel.has_state());
  Rng rng(std::hash<std::string>{}(std::string(topology) + objective));
  Mapping current = Mapping::random(problem.task_count(), tiles, rng);
  kernel.reset(current.assignment());
  ASSERT_NO_FATAL_FAILURE(
      expect_matches_full(problem, kernel, current, "after reset"));

  int commits = 0;
  int reverts = 0;
  for (int step = 0; step < 1200; ++step) {
    const auto where = "step " + std::to_string(step);
    if (step % 250 == 249) {
      // Arbitrary re-assignment: the full-rebuild fallback.
      current = Mapping::random(problem.task_count(), tiles, rng);
      kernel.reset(current.assignment());
      ASSERT_NO_FATAL_FAILURE(
          expect_matches_full(problem, kernel, current, where + " rebase"));
      continue;
    }
    const auto a = static_cast<TileId>(rng.next_below(tiles));
    const auto b = static_cast<TileId>(rng.next_below(tiles));
    current.swap_tiles(a, b);
    kernel.propose_swap(a, b);
    ASSERT_TRUE(kernel.pending());
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_full(problem, kernel, current, where + " propose"));
    if (rng.next_bool(0.6)) {
      kernel.commit();
      ++commits;
    } else {
      // Revert-after-propose round trip must restore the state bitwise.
      kernel.revert();
      current.swap_tiles(a, b);
      ++reverts;
      ASSERT_NO_FATAL_FAILURE(
          expect_matches_full(problem, kernel, current, where + " revert"));
    }
  }
  EXPECT_GT(commits, 100);
  EXPECT_GT(reverts, 100);
}

const auto kSweepConfigs =
    ::testing::Values(SweepConfig{"mesh", "worst_loss"},
                      SweepConfig{"mesh", "worst_snr"},
                      SweepConfig{"ring", "worst_loss"},
                      SweepConfig{"ring", "worst_snr"},
                      SweepConfig{"torus", "worst_loss"},
                      SweepConfig{"torus", "worst_snr"});

INSTANTIATE_TEST_SUITE_P(Configs, DeltaEqualsFullSweep, kSweepConfigs,
                         PrintConfig);

// --- every Evaluator entry point vs the oracle ------------------------------

void expect_same_edges(std::span<const EdgeMetrics> got,
                       std::span<const EdgeMetrics> want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t e = 0; e < want.size(); ++e) {
    ASSERT_EQ(got[e].edge, want[e].edge) << where;
    ASSERT_EQ(got[e].src_tile, want[e].src_tile) << where;
    ASSERT_EQ(got[e].dst_tile, want[e].dst_tile) << where;
    ASSERT_EQ(got[e].loss_db, want[e].loss_db) << where;
    ASSERT_EQ(got[e].signal_gain, want[e].signal_gain) << where;
    ASSERT_EQ(got[e].noise_gain, want[e].noise_gain) << where;
    ASSERT_EQ(got[e].snr_db, want[e].snr_db) << where;
  }
}

/// Every whole-mapping entry point scores through the kernel; each must
/// equal the reference loop bitwise, fitness and per-edge detail.
void expect_entry_points_match_oracle(const MappingProblem& problem,
                                      Rng& rng) {
  const auto& net = problem.network();
  const auto& cg = problem.cg();
  std::vector<Mapping> mappings;
  for (int i = 0; i < 24; ++i)
    mappings.push_back(
        Mapping::random(problem.task_count(), problem.tile_count(), rng));
  // Repeats exercise memo hits; with capacity 1, the repeat of row 0
  // at row 2 is evicted before its replay and is scored alone.
  mappings.push_back(mappings[0]);
  mappings.push_back(mappings[1]);
  mappings.insert(mappings.begin() + 2, mappings[0]);

  Evaluator memo(problem, {.cache_capacity = 64});
  Evaluator plain(problem, {.cache_capacity = 0});
  Evaluator tiny(problem, {.cache_capacity = 1});
  std::vector<double> want_fitness;
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    const auto where = "mapping " + std::to_string(i);
    const auto assignment = mappings[i].assignment();
    const auto want_raw = evaluate_mapping(net, cg, assignment);
    const auto want = evaluate_mapping(net, cg, assignment, true);
    want_fitness.push_back(problem.objective().fitness(want_raw));

    ASSERT_EQ(memo.evaluate(mappings[i]), want_fitness.back()) << where;
    ASSERT_EQ(plain.evaluate(mappings[i]), want_fitness.back()) << where;

    const auto raw = plain.evaluate_raw(mappings[i]);
    ASSERT_EQ(raw.worst_loss_db, want_raw.worst_loss_db) << where;
    ASSERT_EQ(raw.worst_snr_db, want_raw.worst_snr_db) << where;
    ASSERT_NO_FATAL_FAILURE(expect_same_edges(raw.edges, want_raw.edges,
                                              where + " raw"));

    const auto detailed = plain.evaluate_detailed(mappings[i]);
    ASSERT_EQ(detailed.worst_loss_db, want.worst_loss_db) << where;
    ASSERT_EQ(detailed.worst_snr_db, want.worst_snr_db) << where;
    ASSERT_NO_FATAL_FAILURE(expect_same_edges(detailed.edges, want.edges,
                                              where + " detailed"));
  }
  EXPECT_GT(memo.cache_hit_count(), 0u);

  for (Evaluator* evaluator : {&memo, &plain, &tiny}) {
    std::vector<double> got(mappings.size());
    evaluator->evaluate_batch(mappings, got);
    for (std::size_t i = 0; i < mappings.size(); ++i)
      ASSERT_EQ(got[i], want_fitness[i]) << "batch row " << i;
  }

  std::vector<BatchPoint> points(mappings.size());
  plain.evaluate_raw_batch(mappings, points);
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    const auto want = evaluate_mapping(net, cg, mappings[i].assignment());
    ASSERT_EQ(points[i].worst_loss_db, want.worst_loss_db) << "raw row " << i;
    ASSERT_EQ(points[i].worst_snr_db, want.worst_snr_db) << "raw row " << i;
  }
}

class EvaluatorEqualsOracle : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(EvaluatorEqualsOracle, EveryEntryPointIsBitIdentical) {
  const auto [topology, objective] = GetParam();
  const auto problem = make_test_problem(topology, objective, 41);
  Rng rng(std::hash<std::string>{}(std::string(objective) + topology));
  expect_entry_points_match_oracle(problem, rng);
}

INSTANTIATE_TEST_SUITE_P(Configs, EvaluatorEqualsOracle, kSweepConfigs,
                         PrintConfig);

// --- two mask words ---------------------------------------------------------

/// A 40-task CG on a 9x9 mesh. Its 81 tiles take two mask words, so every
/// pair goes through the multi-word mask check and the ordered hop walk.
MappingProblem make_wide_problem(const std::string& objective) {
  auto cg = random_cg({.tasks = 40,
                       .avg_out_degree = 2.0,
                       .min_bandwidth = 8,
                       .max_bandwidth = 256,
                       .seed = 83,
                       .acyclic = false});
  auto obj = make_test_objective(objective);
  return MappingProblem(std::move(cg),
                        make_network(TopologyKind::Mesh, 9, "crux"),
                        std::move(obj));
}

TEST(IncrementalKernel, TwoMaskWordsWalkIsBitIdentical) {
  const auto problem = make_wide_problem("worst_snr");
  ASSERT_EQ(problem.network().store().mask_words, 2u);
  const auto tiles = problem.tile_count();
  IncrementalEvaluation kernel(problem.network(), problem.cg());
  Rng rng(97);
  Mapping current = Mapping::random(problem.task_count(), tiles, rng);
  kernel.reset(current.assignment());
  ASSERT_NO_FATAL_FAILURE(
      expect_matches_full(problem, kernel, current, "after reset"));
  for (int step = 0; step < 300; ++step) {
    const auto where = "step " + std::to_string(step);
    const auto a = static_cast<TileId>(rng.next_below(tiles));
    const auto b = static_cast<TileId>(rng.next_below(tiles));
    current.swap_tiles(a, b);
    kernel.propose_swap(a, b);
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_full(problem, kernel, current, where + " propose"));
    if (rng.next_bool(0.6)) {
      kernel.commit();
      continue;
    }
    kernel.revert();
    current.swap_tiles(a, b);
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_full(problem, kernel, current, where + " revert"));
  }
}

TEST(EvaluatorEqualsOracleWide, TwoMaskWordsAreBitIdentical) {
  Rng rng(std::hash<std::string>{}("worst_snr"));
  ASSERT_NO_FATAL_FAILURE(
      expect_entry_points_match_oracle(make_wide_problem("worst_snr"), rng));
}

// --- kernel protocol guards -------------------------------------------------

TEST(IncrementalKernel, ProtocolMisuseThrows) {
  const auto problem = make_test_problem("mesh", "worst_snr", 3);
  IncrementalEvaluation kernel(problem.network(), problem.cg());
  EXPECT_THROW(kernel.propose_swap(0, 1), InvalidArgument);  // no base
  EXPECT_THROW(kernel.commit(), InvalidArgument);
  EXPECT_THROW(kernel.revert(), InvalidArgument);
  Rng rng(5);
  const auto mapping = Mapping::random(problem.task_count(),
                                       problem.tile_count(), rng);
  kernel.reset(mapping.assignment());
  kernel.propose_swap(0, 1);
  EXPECT_THROW(kernel.propose_swap(2, 3), InvalidArgument);  // pending
  EXPECT_THROW(kernel.reset(mapping.assignment()), InvalidArgument);
  kernel.revert();
  EXPECT_THROW(kernel.commit(), InvalidArgument);  // nothing pending
}

TEST(IncrementalKernel, EmptyTileAndIdentitySwapsAreExactNoOps) {
  // 10 tasks on 16 tiles: empty tiles exist. Swapping two empty tiles
  // or a tile with itself must leave every metric bitwise unchanged.
  const auto problem = make_test_problem("mesh", "worst_snr", 9);
  IncrementalEvaluation kernel(problem.network(), problem.cg());
  Rng rng(11);
  Mapping current = Mapping::random(problem.task_count(),
                                    problem.tile_count(), rng);
  kernel.reset(current.assignment());
  TileId empty_a = 0;
  TileId empty_b = 0;
  for (TileId t = 0; t < problem.tile_count(); ++t)
    if (current.task_at(t) < 0) {
      empty_a = empty_b;
      empty_b = t;
    }
  ASSERT_NE(empty_a, empty_b);
  const auto before = kernel.result(true);
  kernel.propose_swap(empty_a, empty_b);
  EXPECT_EQ(kernel.result(true).worst_snr_db, before.worst_snr_db);
  kernel.commit();
  kernel.propose_swap(3, 3);
  EXPECT_EQ(kernel.result(true).worst_snr_db, before.worst_snr_db);
  kernel.revert();
  ASSERT_NO_FATAL_FAILURE(
      expect_matches_full(problem, kernel, current, "after no-ops"));
}

// --- Evaluator move API -----------------------------------------------------

TEST(EvaluatorMoves, ProposalCountsOneLogicalEvaluation) {
  const auto problem = make_test_problem("mesh", "worst_snr", 21);
  Evaluator evaluator(problem);
  ASSERT_TRUE(evaluator.supports_moves());
  Rng rng(2);
  Mapping current = Mapping::random(problem.task_count(),
                                    problem.tile_count(), rng);
  const double base = evaluator.evaluate(current);
  EXPECT_EQ(evaluator.evaluation_count(), 1u);

  current.swap_tiles(1, 2);
  const double proposed = evaluator.propose_swap(current, 1, 2);
  EXPECT_EQ(evaluator.evaluation_count(), 2u);
  EXPECT_EQ(proposed,
            problem.objective().fitness(evaluator.evaluate_raw(current)));
  evaluator.revert_move();
  current.swap_tiles(1, 2);
  // Back at the base: a re-proposal of any swap still agrees with the
  // whole-mapping path, and the base fitness is unchanged.
  EXPECT_EQ(evaluator.evaluate(current), base);
  EXPECT_EQ(evaluator.evaluation_count(), 3u);
}

TEST(EvaluatorMoves, ProposalsMatchTheOracleBitIdentically) {
  // The SNR objective's moves run the delta kernel; the loss-only
  // objective's moves are loss-only batches of one. Both equal the
  // oracle's whole-mapping fallback bitwise.
  for (const auto* objective : {"worst_snr", "worst_loss"}) {
    SCOPED_TRACE(objective);
    const auto problem = make_test_problem("torus", objective, 23);
    Evaluator evaluator(problem, {.cache_capacity = 0});
    OracleFitness oracle(problem);
    Rng rng(17);
    Mapping a = Mapping::random(problem.task_count(), problem.tile_count(),
                                rng);
    Mapping b = a;
    EXPECT_EQ(evaluator.evaluate(a), oracle.evaluate(b));
    for (int step = 0; step < 300; ++step) {
      const auto x =
          static_cast<TileId>(rng.next_below(problem.tile_count()));
      const auto y =
          static_cast<TileId>(rng.next_below(problem.tile_count()));
      a.swap_tiles(x, y);
      b.swap_tiles(x, y);
      const double fi = evaluator.propose_swap(a, x, y);
      const double ff = oracle.propose_swap(b, x, y);
      ASSERT_EQ(fi, ff) << "step " << step;
      if (step % 3 == 0) {
        evaluator.commit_move();
        oracle.commit_move();
      } else {
        evaluator.revert_move();
        oracle.revert_move();
        a.swap_tiles(x, y);
        b.swap_tiles(x, y);
      }
    }
    EXPECT_EQ(evaluator.evaluation_count(), oracle.evaluation_count());
    EXPECT_EQ(evaluator.physical_evaluation_count(), 1u);
  }
}

TEST(EvaluatorMoves, LossOnlyObjectivesNeverBuildTheDeltaKernel) {
  // An objective that reads no crosstalk has its moves scored as
  // loss-only batches of one: whole move-based runs never build the
  // O(|E|^2) delta kernel, which the SNR objective's runs do.
  OptimizerBudget budget;
  budget.max_evaluations = 600;
  for (const auto* objective : {"worst_loss", "worst_snr"}) {
    SCOPED_TRACE(objective);
    const auto problem = make_test_problem("mesh", objective, 51);
    const Engine engine(problem);
    Evaluator evaluator(problem);
    for (const auto* name : {"sa", "tabu", "rpbla"})
      (void)engine.run_with(evaluator, name, budget, 3);
    EXPECT_GT(evaluator.evaluation_count(), 1000u);
    if (problem.objective().needs_noise())
      EXPECT_GT(evaluator.kernel_rebuild_count(), 0u);
    else
      EXPECT_EQ(evaluator.kernel_rebuild_count(), 0u);
  }
}

// --- complete optimizer runs: Evaluator (memo on/off) vs the oracle ---------

void expect_identical_runs(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_TRUE(a.search.best == b.search.best);
  EXPECT_EQ(a.search.best_fitness, b.search.best_fitness);  // bitwise
  EXPECT_EQ(a.search.evaluations, b.search.evaluations);
  EXPECT_EQ(a.search.iterations, b.search.iterations);
  ASSERT_EQ(a.search.trace.size(), b.search.trace.size());
  for (std::size_t i = 0; i < a.search.trace.size(); ++i) {
    EXPECT_EQ(a.search.trace[i].evaluation, b.search.trace[i].evaluation);
    EXPECT_EQ(a.search.trace[i].fitness, b.search.trace[i].fitness);
  }
  EXPECT_EQ(a.best_evaluation.worst_loss_db, b.best_evaluation.worst_loss_db);
  EXPECT_EQ(a.best_evaluation.worst_snr_db, b.best_evaluation.worst_snr_db);
}

TEST(EvaluatorEquivalence, OptimizerTrajectoriesMatchWholeMappingPath) {
  // The load-bearing end-to-end property: for every optimizer, the
  // Evaluator's kernels (and the memo) must reproduce the oracle's
  // whole-mapping sequential protocol bit for bit. Two objectives: SNR
  // runs the full and delta kernels, the insertion-loss goal runs the
  // loss-only pass.
  ExperimentSpec spec;
  spec.benchmark = "mpeg4";
  const auto snr = make_experiment(spec);
  spec.goal = OptimizationGoal::InsertionLoss;
  const auto loss = make_experiment(spec);
  OptimizerBudget budget;
  budget.max_evaluations = 1500;
  for (const MappingProblem* problem : {&snr, &loss}) {
    SCOPED_TRACE(problem->objective().name());
    const Engine delta(*problem, {.cache_capacity = 0});
    const Engine delta_cached(*problem, {.cache_capacity = 512});
    for (const auto* name : {"sa", "tabu", "rpbla", "rs", "ga"}) {
      SCOPED_TRACE(name);
      const auto want = oracle_run(*problem, name, budget, 42);
      expect_identical_runs(delta.run(name, budget, 42), want);
      expect_identical_runs(delta_cached.run(name, budget, 42), want);
    }
  }
}

// --- memoization counting contract ------------------------------------------

TEST(EvaluatorMemo, CacheHitsDoNotChangeLogicalCounts) {
  const auto problem = make_test_problem("mesh", "worst_snr", 31);
  Evaluator evaluator(problem, {.cache_capacity = 64});
  Rng rng(4);
  const auto mapping = Mapping::random(problem.task_count(),
                                       problem.tile_count(), rng);
  const double first = evaluator.evaluate(mapping);
  EXPECT_EQ(evaluator.evaluation_count(), 1u);
  EXPECT_EQ(evaluator.physical_evaluation_count(), 1u);
  EXPECT_EQ(evaluator.cache_hit_count(), 0u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(evaluator.evaluate(mapping), first);
  // Logical counts (what budgets observe) advance on every call; the
  // physical evaluation ran exactly once.
  EXPECT_EQ(evaluator.evaluation_count(), 6u);
  EXPECT_EQ(evaluator.physical_evaluation_count(), 1u);
  EXPECT_EQ(evaluator.cache_hit_count(), 5u);
}

TEST(EvaluatorMemo, ZeroCapacityDisablesTheCache) {
  const auto problem = make_test_problem("mesh", "worst_snr", 31);
  Evaluator evaluator(problem, {.cache_capacity = 0});
  Rng rng(4);
  const auto mapping = Mapping::random(problem.task_count(),
                                       problem.tile_count(), rng);
  const double first = evaluator.evaluate(mapping);
  EXPECT_EQ(evaluator.evaluate(mapping), first);
  EXPECT_EQ(evaluator.evaluation_count(), 2u);
  EXPECT_EQ(evaluator.physical_evaluation_count(), 2u);
  EXPECT_EQ(evaluator.cache_hit_count(), 0u);
}

TEST(EvaluatorMemo, DuplicateHeavySamplingKeepsBudgetSemantics) {
  // 4 tasks on 4 tiles: only 24 distinct mappings, so RS re-samples
  // duplicates constantly. The run must still report exactly the
  // budgeted number of evaluations while the memo absorbs the repeats.
  auto cg = pipeline_cg(4);
  auto network = make_network(TopologyKind::Mesh, 2, "crux");
  MappingProblem problem(std::move(cg), network,
                         make_objective(OptimizationGoal::InsertionLoss));
  Evaluator evaluator(problem, {.cache_capacity = 64});
  SearchState state(evaluator, 4, 4, OptimizerBudget{500, 0.0}, 9);
  while (!state.exhausted())
    state.evaluate(Mapping::random(4, 4, state.rng()));
  EXPECT_EQ(state.evaluations(), 500u);
  EXPECT_EQ(evaluator.evaluation_count(), 500u);
  EXPECT_LE(evaluator.physical_evaluation_count(), 24u);
  EXPECT_EQ(evaluator.cache_hit_count(),
            evaluator.evaluation_count() -
                evaluator.physical_evaluation_count());
}

TEST(EvaluatorMemo, HitsPlusMissesEqualsCallsAndEvictionsAreCounted) {
  // The counting contract the service metrics rely on: with the memo
  // enabled, every evaluate() is either a hit or a miss, and misses
  // are exactly the physical evaluations.
  const auto problem = make_test_problem("mesh", "worst_snr", 31);
  Evaluator evaluator(problem, {.cache_capacity = 2});
  Rng rng(11);
  std::vector<Mapping> mappings;
  for (int i = 0; i < 4; ++i)
    mappings.push_back(Mapping::random(problem.task_count(),
                                       problem.tile_count(), rng));
  for (const auto& mapping : mappings) (void)evaluator.evaluate(mapping);
  EXPECT_EQ(evaluator.cache_miss_count(), 4u);
  EXPECT_EQ(evaluator.cache_hit_count(), 0u);
  // Capacity 2, four distinct entries: the two oldest were evicted.
  EXPECT_EQ(evaluator.cache_eviction_count(), 2u);
  // The most recent mapping is still cached; the oldest is not.
  (void)evaluator.evaluate(mappings[3]);
  EXPECT_EQ(evaluator.cache_hit_count(), 1u);
  (void)evaluator.evaluate(mappings[0]);
  EXPECT_EQ(evaluator.cache_miss_count(), 5u);
  EXPECT_EQ(evaluator.cache_hit_count() + evaluator.cache_miss_count(),
            evaluator.evaluation_count());
  EXPECT_EQ(evaluator.cache_miss_count(),
            evaluator.physical_evaluation_count());
}

TEST(EvaluatorMemo, DisabledCacheCountsNothing) {
  const auto problem = make_test_problem("mesh", "worst_snr", 31);
  Evaluator evaluator(problem, {.cache_capacity = 0});
  Rng rng(12);
  const auto mapping = Mapping::random(problem.task_count(),
                                       problem.tile_count(), rng);
  (void)evaluator.evaluate(mapping);
  (void)evaluator.evaluate(mapping);
  EXPECT_EQ(evaluator.cache_hit_count(), 0u);
  EXPECT_EQ(evaluator.cache_miss_count(), 0u);
  EXPECT_EQ(evaluator.cache_eviction_count(), 0u);
}

TEST(EvaluatorReuse, WarmEvaluatorRunsEqualFreshOnesBitForBit) {
  // The service's warm-Evaluator contract: one Evaluator serving run
  // after run — its memo holding earlier runs' mappings, its delta
  // kernel sitting on an earlier run's state — returns exactly what a
  // fresh Evaluator returns. The second pass repeats every run, so the
  // memo answers most of its evaluations.
  OptimizerBudget budget;
  budget.max_evaluations = 600;
  for (const auto topology : {TopologyKind::Mesh, TopologyKind::Torus}) {
    ExperimentSpec spec;
    spec.topology = topology;
    const auto problem = make_experiment(spec);
    const Engine engine(problem);
    Evaluator warm(problem);
    for (int pass = 0; pass < 2; ++pass)
      for (const std::uint64_t seed : {1u, 2u})
        for (const auto* name : {"rs", "ga", "sa", "tabu", "rpbla", "greedy"}) {
          const std::string where = to_string(topology) + ' ' + name +
                                    " seed " + std::to_string(seed) +
                                    " pass " + std::to_string(pass);
          const auto got = engine.run_with(warm, name, budget, seed);
          const auto want = engine.run(name, budget, seed);
          SCOPED_TRACE(where);
          expect_identical_runs(got, want);
          expect_same_edges(got.best_evaluation.edges,
                            want.best_evaluation.edges, where);
        }
    EXPECT_GT(warm.cache_hit_count(), 0u);
  }
}

TEST(EvaluatorRaw, LossOnlyProblemsStillReportTheOracleSnr) {
  // Fitness of a loss-only objective skips crosstalk, but the reporting
  // entry points always score it: their SNR is the oracle's bitwise,
  // never the loss-only pass's NaN, even right after a loss-only
  // scoring reused the same scratch.
  const auto problem = make_test_problem("torus", "worst_loss", 57);
  Evaluator evaluator(problem, {.cache_capacity = 0});
  Rng rng(8);
  std::vector<Mapping> mappings;
  for (int i = 0; i < 8; ++i)
    mappings.push_back(Mapping::random(problem.task_count(),
                                       problem.tile_count(), rng));
  std::vector<BatchPoint> points(mappings.size());
  evaluator.evaluate_raw_batch(mappings, points);
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    const auto where = "mapping " + std::to_string(i);
    const auto want = evaluate_mapping(problem.network(), problem.cg(),
                                       mappings[i].assignment(), true);
    (void)evaluator.evaluate(mappings[i]);
    const auto raw = evaluator.evaluate_raw(mappings[i]);
    (void)evaluator.evaluate(mappings[i]);
    const auto detailed = evaluator.evaluate_detailed(mappings[i]);
    for (const double got :
         {raw.worst_snr_db, detailed.worst_snr_db, points[i].worst_snr_db}) {
      EXPECT_FALSE(std::isnan(got)) << where;
      EXPECT_EQ(got, want.worst_snr_db) << where;
    }
    ASSERT_NO_FATAL_FAILURE(
        expect_same_edges(detailed.edges, want.edges, where + " detailed"));
  }
}

TEST(MappingHash, SensitiveToOrderAndContents) {
  const auto h1 = Mapping::from_assignment({0, 1, 2}, 4).hash();
  const auto h2 = Mapping::from_assignment({0, 2, 1}, 4).hash();
  const auto h3 = Mapping::from_assignment({0, 1, 3}, 4).hash();
  EXPECT_NE(h1, h2);
  EXPECT_NE(h1, h3);
  EXPECT_EQ(h1, Mapping::from_assignment({0, 1, 2}, 4).hash());
  EXPECT_EQ(h1, assignment_hash(std::vector<TileId>{0, 1, 2}));
}

}  // namespace
}  // namespace phonoc
