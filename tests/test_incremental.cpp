// Property tests of the Evaluator against the oracle (tests/oracle.hpp):
// across random CGs, mesh/ring/torus topologies and both paper
// objectives, every whole-mapping entry point and the move path must be
// bit-identical (tolerance 0) to `evaluate_mapping`, and complete
// optimizer runs must equal the oracle's. Also covers the whole-mapping
// memo's counting contract (cache hits must never change the evaluation
// counts budgets observe, and moves never touch the memo), the reuse
// contract (a warm Evaluator serving run after run returns exactly what
// a fresh one does), and the move shim that perfbench's layer probe
// times (model/incremental.hpp).

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

struct SweepConfig {
  const char* topology;
  const char* objective;
};

std::string PrintConfig(const ::testing::TestParamInfo<SweepConfig>& info) {
  return std::string(info.param.topology) + "_" + info.param.objective;
}

/// Mesh, ring and torus x both paper objectives.
const SweepConfig kSweep[] = {
    {"mesh", "worst_loss"},  {"mesh", "worst_snr"},
    {"ring", "worst_loss"},  {"ring", "worst_snr"},
    {"torus", "worst_loss"}, {"torus", "worst_snr"}};
const auto kSweepConfigs = ::testing::ValuesIn(kSweep);

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

TEST(EvaluatorEqualsOracleWide, TwoMaskWordsAreBitIdentical) {
  Rng rng(std::hash<std::string>{}("worst_snr"));
  ASSERT_NO_FATAL_FAILURE(
      expect_entry_points_match_oracle(make_wide_problem("worst_snr"), rng));
}

// --- the move shim (model/incremental.hpp) ----------------------------------

TEST(MoveShim, ProposeRevertWalkMatchesTheOracle) {
  // The shim perfbench's layer probe times must really score: after
  // every proposal (kept or reverted) its view equals the oracle of the
  // current mapping bitwise, on one mask word and on two.
  const auto mesh = make_test_problem("mesh", "worst_snr", 61);
  const auto wide = make_wide_problem("worst_snr");
  ASSERT_EQ(mesh.network().store().mask_words, 1u);
  ASSERT_EQ(wide.network().store().mask_words, 2u);
  for (const MappingProblem* problem : {&mesh, &wide}) {
    SCOPED_TRACE(problem->tile_count());
    const auto tiles = problem->tile_count();
    const auto expect_oracle = [&](const IncrementalEvaluation& shim,
                                   const Mapping& mapping,
                                   const std::string& where) {
      const auto want = evaluate_mapping(problem->network(), problem->cg(),
                                         mapping.assignment());
      const auto got = shim.view();
      ASSERT_EQ(got.worst_loss_db, want.worst_loss_db) << where;
      ASSERT_EQ(got.worst_snr_db, want.worst_snr_db) << where;
    };
    IncrementalEvaluation shim(problem->network(), problem->cg());
    Rng rng(71);
    Mapping current = Mapping::random(problem->task_count(), tiles, rng);
    shim.reset(current.assignment());
    ASSERT_NO_FATAL_FAILURE(expect_oracle(shim, current, "reset"));
    int reverts = 0;
    for (int step = 0; step < 200; ++step) {
      const auto where = "step " + std::to_string(step);
      const auto a = static_cast<TileId>(rng.next_below(tiles));
      const auto b = static_cast<TileId>(rng.next_below(tiles));
      current.swap_tiles(a, b);
      shim.propose_swap(a, b);
      ASSERT_NO_FATAL_FAILURE(expect_oracle(shim, current, where + " propose"));
      if (rng.next_bool(0.4)) continue;  // keep the move
      shim.revert();
      current.swap_tiles(a, b);
      ++reverts;
      ASSERT_NO_FATAL_FAILURE(expect_oracle(shim, current, where + " revert"));
    }
    EXPECT_GT(reverts, 50);
  }
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
  // Each move is scored whole, a loss-only batch of one for the
  // loss-only objective; both equal the oracle's whole-mapping fallback
  // bitwise on every topology.
  for (const auto& [topology, objective] : kSweep) {
    SCOPED_TRACE(std::string(topology) + " " + objective);
    const auto problem = make_test_problem(topology, objective, 23);
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

TEST(EvaluatorMoves, ProposalsLeaveTheMemoAndItsCountersUntouched) {
  // Moves are scored whole and bypass the memo: a propose/commit/revert
  // walk from a memoized mapping leaves every memo counter, the physical
  // count and the memo's contents and recency order exactly as they
  // were, while each proposal still counts one logical evaluation.
  for (const auto* objective : {"worst_snr", "worst_loss"}) {
    SCOPED_TRACE(objective);
    const auto problem = make_test_problem("mesh", objective, 29);
    Evaluator evaluator(problem, {.cache_capacity = 4});
    Rng rng(13);
    std::vector<Mapping> seen;
    for (int i = 0; i < 6; ++i) {
      seen.push_back(Mapping::random(problem.task_count(),
                                     problem.tile_count(), rng));
      (void)evaluator.evaluate(seen.back());
    }
    (void)evaluator.evaluate(seen[4]);
    const auto hits = evaluator.cache_hit_count();
    const auto misses = evaluator.cache_miss_count();
    const auto evictions = evaluator.cache_eviction_count();
    const auto physical = evaluator.physical_evaluation_count();
    const auto logical = evaluator.evaluation_count();
    const auto memo = evaluator.export_memo();
    ASSERT_EQ(hits, 1u);
    ASSERT_EQ(evictions, 2u);

    Mapping current = seen[5];
    for (int step = 0; step < 200; ++step) {
      const auto a =
          static_cast<TileId>(rng.next_below(problem.tile_count()));
      const auto b =
          static_cast<TileId>(rng.next_below(problem.tile_count()));
      current.swap_tiles(a, b);
      (void)evaluator.propose_swap(current, a, b);
      if (rng.next_bool(0.5)) {
        evaluator.commit_move();
      } else {
        evaluator.revert_move();
        current.swap_tiles(a, b);
      }
    }
    EXPECT_EQ(evaluator.evaluation_count(), logical + 200);
    EXPECT_EQ(evaluator.cache_hit_count(), hits);
    EXPECT_EQ(evaluator.cache_miss_count(), misses);
    EXPECT_EQ(evaluator.cache_eviction_count(), evictions);
    EXPECT_EQ(evaluator.physical_evaluation_count(), physical);
    const auto after = evaluator.export_memo();
    ASSERT_EQ(after.entries.size(), memo.entries.size());
    for (std::size_t i = 0; i < memo.entries.size(); ++i) {
      EXPECT_EQ(after.entries[i].assignment, memo.entries[i].assignment)
          << "entry " << i;
      EXPECT_EQ(after.entries[i].fitness, memo.entries[i].fitness)
          << "entry " << i;
    }
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
  // Evaluator's kernel (and the memo) must reproduce the oracle's
  // whole-mapping sequential protocol bit for bit. Two objectives: SNR
  // runs the full pass, the insertion-loss goal the loss-only pass.
  ExperimentSpec spec;
  spec.benchmark = "mpeg4";
  const auto snr = make_experiment(spec);
  spec.goal = OptimizationGoal::InsertionLoss;
  const auto loss = make_experiment(spec);
  OptimizerBudget budget;
  budget.max_evaluations = 1500;
  for (const MappingProblem* problem : {&snr, &loss}) {
    SCOPED_TRACE(problem->objective().name());
    const Engine engine(*problem);
    for (const auto* name : {"sa", "tabu", "rpbla", "rs", "ga"}) {
      SCOPED_TRACE(name);
      const auto want = oracle_run(*problem, name, budget, 42);
      Evaluator uncached(*problem, {.cache_capacity = 0});
      Evaluator cached(*problem, {.cache_capacity = 512});
      expect_identical_runs(engine.run_with(uncached, name, budget, 42),
                            want);
      expect_identical_runs(engine.run_with(cached, name, budget, 42), want);
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
  // after run, its memo holding earlier runs' mappings, returns exactly
  // what a fresh Evaluator returns. The second pass repeats every run, so the
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
