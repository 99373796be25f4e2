// Bit-identity oracle for the SoA batched evaluation kernel: across
// mesh/ring/torus topologies, random CGs and random batches (odd sizes,
// B=1, B > |E|, duplicate assignments), every BatchPoint and every
// EdgeMetrics row must equal a fresh per-mapping `evaluate_mapping`
// bitwise (tolerance 0), on a 9x9 mesh (two mask words) too, and for a
// pair sharing three tiles. Also covers the Evaluator's batched entry
// points (memo/counting contracts vs a sequential loop, including the
// peek-then-evicted fallback, and rejecting a mapping wider than the
// network), GA batch-vs-sequential trajectory equivalence, and the
// batched Sample-cell body.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/experiment.hpp"
#include "exec/batch_engine.hpp"
#include "exec/sweep.hpp"
#include "mapping/genetic.hpp"
#include "mapping/mapping.hpp"
#include "mapping/objective.hpp"
#include "model/batch_eval.hpp"
#include "model/evaluation.hpp"
#include "router/ports.hpp"
#include "router/registry.hpp"
#include "router/router_model.hpp"
#include "routing/table_routing.hpp"
#include "topology/mesh.hpp"
#include "topology/ring.hpp"
#include "util/rng.hpp"
#include "workloads/generator.hpp"

namespace phonoc {
namespace {

std::shared_ptr<const NetworkModel> make_net(const std::string& topology,
                                             std::uint32_t side) {
  if (topology == "ring") {
    auto router = std::make_shared<const RouterModel>(
        make_router_netlist("crux"), PhysicalParameters::paper_defaults());
    const auto topo = build_ring(RingOptions{side * side, 2.5});
    auto routing = std::make_shared<const TableRouting>(
        TableRouting::shortest_paths(topo));
    return std::make_shared<const NetworkModel>(topo, std::move(router),
                                                std::move(routing),
                                                NetworkModelOptions{});
  }
  const auto kind =
      topology == "torus" ? TopologyKind::Torus : TopologyKind::Mesh;
  return make_network(kind, side, "crux");
}

CommGraph make_cg(std::size_t tasks, std::uint64_t seed) {
  return random_cg({.tasks = static_cast<std::uint32_t>(tasks),
                    .avg_out_degree = 2.5,
                    .min_bandwidth = 8,
                    .max_bandwidth = 256,
                    .seed = seed,
                    .acyclic = false});
}

/// Flatten `batch` random mappings (with deliberate duplicates) into
/// the row-major layout BatchEvaluator consumes.
std::vector<TileId> random_batch(std::size_t batch, std::size_t tasks,
                                 std::size_t tiles, Rng& rng) {
  std::vector<TileId> flat;
  flat.reserve(batch * tasks);
  std::vector<TileId> previous;
  for (std::size_t b = 0; b < batch; ++b) {
    if (b > 0 && b % 3 == 2) {
      // Every third row duplicates the previous one: batches from real
      // consumers (GA populations) contain repeats.
      flat.insert(flat.end(), previous.begin(), previous.end());
      continue;
    }
    const Mapping m = Mapping::random(tasks, tiles, rng);
    previous.assign(m.assignment().begin(), m.assignment().end());
    flat.insert(flat.end(), previous.begin(), previous.end());
  }
  return flat;
}

void expect_bitwise(double actual, double expected, const char* what,
                    std::size_t row) {
  EXPECT_EQ(std::memcmp(&actual, &expected, sizeof(double)), 0)
      << what << " diverges at batch row " << row << ": " << actual
      << " vs " << expected;
}

/// Score `batch` random rows (every third a duplicate) through the
/// checked and trusted entries, with and without noise, and compare
/// every BatchPoint and EdgeMetrics row with `evaluate_mapping`.
void expect_batch_matches_oracle(const NetworkModel& net,
                                 const CommGraph& cg, std::size_t batch,
                                 Rng& rng) {
  BatchEvaluator batched(net, cg);
  const std::size_t tasks = cg.task_count();
  ASSERT_EQ(batched.plan().edge_count(), cg.edges().size());

  const auto flat = random_batch(batch, tasks, net.tile_count(), rng);
  std::vector<BatchPoint> points(batch);
  std::vector<EdgeMetrics> detail(batch * cg.edges().size());
  batched.evaluate(flat, batch, points, detail);

  for (std::size_t b = 0; b < batch; ++b) {
    const std::span<const TileId> row{flat.data() + b * tasks, tasks};
    const auto full = evaluate_mapping(net, cg, row, /*detailed=*/true);
    expect_bitwise(points[b].worst_loss_db, full.worst_loss_db,
                   "worst_loss_db", b);
    expect_bitwise(points[b].worst_snr_db, full.worst_snr_db, "worst_snr_db",
                   b);
    ASSERT_EQ(full.edges.size(), cg.edges().size());
    for (std::size_t e = 0; e < full.edges.size(); ++e) {
      const auto& got = detail[b * cg.edges().size() + e];
      const auto& want = full.edges[e];
      EXPECT_EQ(got.edge, want.edge);
      EXPECT_EQ(got.src_tile, want.src_tile);
      EXPECT_EQ(got.dst_tile, want.dst_tile);
      expect_bitwise(got.loss_db, want.loss_db, "edge loss_db", b);
      expect_bitwise(got.signal_gain, want.signal_gain, "edge signal_gain",
                     b);
      expect_bitwise(got.noise_gain, want.noise_gain, "edge noise_gain", b);
      expect_bitwise(got.snr_db, want.snr_db, "edge snr_db", b);
    }
  }

  // The trusted (validation-hoisted) entry must agree with the checked
  // one — it skips the injectivity scan, not any arithmetic.
  std::vector<BatchPoint> trusted(batch);
  batched.evaluate_trusted(flat, batch, trusted);
  for (std::size_t b = 0; b < batch; ++b) {
    expect_bitwise(trusted[b].worst_loss_db, points[b].worst_loss_db,
                   "trusted worst_loss_db", b);
    expect_bitwise(trusted[b].worst_snr_db, points[b].worst_snr_db,
                   "trusted worst_snr_db", b);
  }

  // The loss-only pass scores the loss fields bitwise like the full
  // pass, through either entry, and leaves every noise field NaN.
  std::vector<BatchPoint> loss(batch);
  std::vector<EdgeMetrics> loss_detail(detail.size());
  batched.evaluate(flat, batch, loss, loss_detail, /*noise=*/false);
  std::vector<BatchPoint> loss_trusted(batch);
  batched.evaluate_trusted(flat, batch, loss_trusted, {}, /*noise=*/false);
  for (std::size_t b = 0; b < batch; ++b) {
    expect_bitwise(loss[b].worst_loss_db, points[b].worst_loss_db,
                   "loss-only worst_loss_db", b);
    expect_bitwise(loss_trusted[b].worst_loss_db, points[b].worst_loss_db,
                   "trusted loss-only worst_loss_db", b);
    EXPECT_TRUE(std::isnan(loss[b].worst_snr_db)) << "row " << b;
    EXPECT_TRUE(std::isnan(loss_trusted[b].worst_snr_db)) << "row " << b;
    for (std::size_t e = 0; e < cg.edges().size(); ++e) {
      const auto& got = loss_detail[b * cg.edges().size() + e];
      const auto& want = detail[b * cg.edges().size() + e];
      EXPECT_EQ(got.edge, want.edge);
      EXPECT_EQ(got.src_tile, want.src_tile);
      EXPECT_EQ(got.dst_tile, want.dst_tile);
      expect_bitwise(got.loss_db, want.loss_db, "loss-only edge loss_db", b);
      expect_bitwise(got.signal_gain, want.signal_gain,
                     "loss-only edge signal_gain", b);
      EXPECT_TRUE(std::isnan(got.noise_gain)) << "row " << b;
      EXPECT_TRUE(std::isnan(got.snr_db)) << "row " << b;
    }
  }
}

class BatchBitIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(BatchBitIdentity, MatchesEvaluateMappingBitwise) {
  const auto& [topology, batch] = GetParam();
  const auto net = make_net(topology, 4);
  const auto cg = make_cg(12, 101 + batch);
  Rng rng(0x9e3779b9u + batch);
  expect_batch_matches_oracle(*net, cg, batch, rng);
}

// Odd batch sizes on purpose: B=1 (degenerate), B=7 (< |E|), B=61
// (> |E| for the 12-task CG). Torus side 4 exercises wraparound routes.
INSTANTIATE_TEST_SUITE_P(
    Topologies, BatchBitIdentity,
    ::testing::Combine(::testing::Values("mesh", "ring", "torus"),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{61})));

// 81 tiles take two mask words: the wide sieve, and the ordered hop
// walk on every surviving pair.
TEST(BatchEval, TwoMaskWordsMatchOracle) {
  const auto net = make_net("mesh", 9);
  ASSERT_EQ(net->store().mask_words, 2u);
  const auto cg = make_cg(40, 211);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}}) {
    Rng rng(311 + batch);
    expect_batch_matches_oracle(*net, cg, batch, rng);
  }
}

/// Two edges on a 4x4 mesh whose paths share three tiles, each with a
/// nonzero term. The attacker 7 -> 4 runs west along row 1 (tiles 7, 6,
/// 5, 4); the victim 5 -> 0 snakes N E S S W W N N (tiles 5, 1, 2, 6,
/// 10, 9, 8, 4, 0) and crosses it at 6, 5 and 4. A crossbar router takes
/// the snake's turns; the 2.4 mm pitch makes the three terms sum to a
/// different double in tile order than in the attacker's hop order.
TEST(BatchEval, PairSharingThreeTilesSumsInHopOrder) {
  const auto topo = build_mesh(GridOptions{4, 4, 2.4});
  auto routing = TableRouting::shortest_paths(topo);
  routing.set_route(5, 0,
                    {kPortNorth, kPortEast, kPortSouth, kPortSouth,
                     kPortWest, kPortWest, kPortNorth, kPortNorth});
  routing.set_route(7, 4, {kPortWest, kPortWest, kPortWest});
  const NetworkModel net(
      topo,
      std::make_shared<const RouterModel>(
          make_router_netlist("crossbar"),
          PhysicalParameters::paper_defaults()),
      std::make_shared<const TableRouting>(std::move(routing)));
  CommGraph cg("three_shared_tiles");
  for (int t = 0; t < 4; ++t) cg.add_task("t" + std::to_string(t));
  cg.add_communication(NodeId{0}, NodeId{1}, 64.0);
  cg.add_communication(NodeId{2}, NodeId{3}, 64.0);
  const std::vector<TileId> assignment{5, 0, 7, 4};

  // The case must tell the two orders apart, or it shows nothing.
  const auto victim = net.path(5, 0);
  const auto attacker = net.path(7, 4);
  std::vector<std::pair<TileId, double>> terms;
  double hop_order = 0.0;
  for (std::size_t ai = 0; ai < attacker.hops.size(); ++ai) {
    const int vi = victim.hop_index_at(attacker.hops[ai].tile);
    if (vi < 0) continue;
    const auto vh = static_cast<std::size_t>(vi);
    const double term =
        attacker.arrive_gain[ai] *
        net.pair_noise_gain(victim.conn[vh], attacker.conn[ai]) *
        victim.exit_suffix[vh];
    ASSERT_GT(term, 0.0);
    terms.emplace_back(attacker.hops[ai].tile, term);
    hop_order += term;
  }
  ASSERT_EQ(terms.size(), 3u);
  std::sort(terms.begin(), terms.end());
  double tile_order = 0.0;
  for (const auto& entry : terms) tile_order += entry.second;
  ASSERT_NE(hop_order, tile_order);

  const auto full = evaluate_mapping(net, cg, assignment, /*detailed=*/true);
  expect_bitwise(full.edges[0].noise_gain, hop_order, "oracle noise", 0);
  BatchEvaluator batched(net, cg);
  BatchPoint point;
  std::vector<EdgeMetrics> detail(2);
  batched.evaluate(assignment, 1, {&point, 1}, detail);
  expect_bitwise(point.worst_snr_db, full.worst_snr_db, "worst_snr_db", 0);
  for (std::size_t e = 0; e < 2; ++e)
    expect_bitwise(detail[e].noise_gain, full.edges[e].noise_gain,
                   "edge noise_gain", e);
}

TEST(BatchEval, ZeroEdgeCgYieldsCeiling) {
  const auto net = make_net("mesh", 2);
  CommGraph cg("edgeless");
  for (int t = 0; t < 3; ++t) cg.add_task("t" + std::to_string(t));
  BatchEvaluator batched(*net, cg);
  Rng rng(5);
  const auto flat = random_batch(4, 3, net->tile_count(), rng);
  std::vector<BatchPoint> points(4);
  batched.evaluate(flat, 4, points);
  for (std::size_t b = 0; b < 4; ++b) {
    const std::span<const TileId> row{flat.data() + b * 3, std::size_t{3}};
    const auto full = evaluate_mapping(*net, cg, row);
    expect_bitwise(points[b].worst_loss_db, full.worst_loss_db,
                   "worst_loss_db", b);
    expect_bitwise(points[b].worst_snr_db, full.worst_snr_db, "worst_snr_db",
                   b);
  }
}

TEST(BatchEval, ValidatedEntryRejectsBadAssignments) {
  const auto net = make_net("mesh", 2);
  const auto cg = make_cg(4, 7);
  BatchEvaluator batched(*net, cg);
  std::vector<BatchPoint> out(1);

  std::vector<TileId> duplicate_tile{0, 1, 1, 2};
  EXPECT_THROW(batched.evaluate(duplicate_tile, 1, out), InvalidArgument);
  std::vector<TileId> out_of_range{0, 1, 2, 99};
  EXPECT_THROW(batched.evaluate(out_of_range, 1, out), InvalidArgument);
  std::vector<TileId> wrong_size{0, 1, 2};
  EXPECT_THROW(batched.evaluate(wrong_size, 1, out), InvalidArgument);
}

MappingProblem make_problem(const std::string& topology, std::uint64_t seed) {
  auto cg = make_cg(10, seed);
  auto obj = std::make_shared<WorstSnrObjective>();
  return MappingProblem(std::move(cg), make_net(topology, 4), std::move(obj));
}

std::vector<Mapping> make_mapping_batch(const MappingProblem& problem,
                                        std::size_t count, Rng& rng,
                                        std::size_t duplicate_every = 3) {
  std::vector<Mapping> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0 && duplicate_every > 0 && i % duplicate_every == 2)
      batch.push_back(batch[i - 1]);
    else
      batch.push_back(Mapping::random(problem.task_count(),
                                      problem.tile_count(), rng));
  }
  return batch;
}

void expect_same_counters(const Evaluator& got, const Evaluator& want) {
  EXPECT_EQ(got.evaluation_count(), want.evaluation_count());
  EXPECT_EQ(got.physical_evaluation_count(),
            want.physical_evaluation_count());
  EXPECT_EQ(got.cache_hit_count(), want.cache_hit_count());
  EXPECT_EQ(got.cache_miss_count(), want.cache_miss_count());
  EXPECT_EQ(got.cache_eviction_count(), want.cache_eviction_count());
}

/// evaluate_batch must be indistinguishable from a sequential loop of
/// evaluate calls: fitness values, all five counters, and the memo's
/// contents + recency order (observed via export_memo).
TEST(EvaluatorBatch, MatchesSequentialLoopIncludingMemoState) {
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{4},
                                     std::size_t{1024}}) {
    const auto problem = make_problem("mesh", 41);
    Evaluator batched(problem, {.cache_capacity = capacity});
    Evaluator sequential(problem, {.cache_capacity = capacity});

    Rng rng(99);
    for (int round = 0; round < 4; ++round) {
      Rng copy = rng;
      const auto batch = make_mapping_batch(problem, 13, rng);
      const auto batch2 = make_mapping_batch(problem, 13, copy);
      std::vector<double> got(batch.size());
      batched.evaluate_batch(batch, got);
      for (std::size_t i = 0; i < batch2.size(); ++i) {
        const double want = sequential.evaluate(batch2[i]);
        EXPECT_EQ(std::memcmp(&got[i], &want, sizeof(double)), 0)
            << "fitness diverges at capacity " << capacity << " round "
            << round << " row " << i;
      }
      expect_same_counters(batched, sequential);
      const auto memo_got = batched.export_memo();
      const auto memo_want = sequential.export_memo();
      ASSERT_EQ(memo_got.entries.size(), memo_want.entries.size());
      for (std::size_t i = 0; i < memo_got.entries.size(); ++i) {
        EXPECT_EQ(memo_got.entries[i].assignment,
                  memo_want.entries[i].assignment)
            << "memo recency order diverges at entry " << i;
        EXPECT_EQ(memo_got.entries[i].fitness, memo_want.entries[i].fitness);
      }
    }
  }
}

/// The eviction-fallback path: the peek pass promises row m1 a cache
/// hit, but the two inserts before its replay turn evict it from the
/// capacity-2 memo — the row must fall back to a scalar evaluation
/// with the exact sequential counters.
TEST(EvaluatorBatch, PeekHitEvictedBeforeReplayFallsBack) {
  const auto problem = make_problem("mesh", 43);
  Evaluator batched(problem, {.cache_capacity = 2});
  Evaluator sequential(problem, {.cache_capacity = 2});

  Rng rng(7);
  const Mapping m1 = Mapping::random(problem.task_count(),
                                     problem.tile_count(), rng);
  const Mapping m2 = Mapping::random(problem.task_count(),
                                     problem.tile_count(), rng);
  const Mapping m3 = Mapping::random(problem.task_count(),
                                     problem.tile_count(), rng);

  const double seeded_b = batched.evaluate(m1);
  const double seeded_s = sequential.evaluate(m1);
  EXPECT_EQ(seeded_b, seeded_s);

  const std::vector<Mapping> batch{m2, m3, m1};
  std::vector<double> got(batch.size());
  batched.evaluate_batch(batch, got);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const double want = sequential.evaluate(batch[i]);
    EXPECT_EQ(got[i], want) << "row " << i;
  }
  expect_same_counters(batched, sequential);
  // m1 really was evicted before its replay turn, so the sequential
  // contract demands it re-evaluated physically: 4 misses, 0 hits.
  EXPECT_EQ(batched.cache_hit_count(), 0u);
  EXPECT_EQ(batched.cache_miss_count(), 4u);
  EXPECT_EQ(batched.physical_evaluation_count(), 4u);
  EXPECT_EQ(batched.cache_eviction_count(), 2u);
}

/// The batched entries skip the kernel's per-row scan on the strength of
/// the Mapping invariant, which bounds tiles only by the mapping's own
/// tile count: a mapping built for a larger grid must be rejected as
/// `evaluate` rejects it, not read out of bounds.
TEST(EvaluatorBatch, RejectsMappingsWiderThanTheNetwork) {
  const auto problem = make_problem("mesh", 59);
  Evaluator evaluator(problem, {});
  Rng rng(12);
  const std::vector<Mapping> wide{
      Mapping::random(problem.task_count(), 400, rng)};
  EXPECT_THROW((void)evaluator.evaluate(wide[0]), InvalidArgument);
  std::vector<double> fitness(1);
  EXPECT_THROW(evaluator.evaluate_batch(wide, fitness), InvalidArgument);
  std::vector<BatchPoint> points(1);
  EXPECT_THROW(evaluator.evaluate_raw_batch(wide, points), InvalidArgument);
}

/// GA through the Evaluator's batched override vs GA through a wrapper
/// that hides it (forcing the sequential default): identical
/// trajectories — best mapping, fitness, evaluation count and trace.
TEST(GeneticBatch, TrajectoryMatchesSequentialScoring) {
  struct ScalarOnly final : FitnessFunction {
    explicit ScalarOnly(Evaluator& inner) : inner(inner) {}
    double evaluate(const Mapping& m) override { return inner.evaluate(m); }
    Evaluator& inner;
  };

  for (const std::uint64_t budget : {std::uint64_t{37}, std::uint64_t{200}}) {
    const auto problem = make_problem("mesh", 53);
    Evaluator batched(problem, {});
    Evaluator plain(problem, {});
    ScalarOnly scalar(plain);

    const GeneticAlgorithm ga(
        {.population = 16, .tournament = 3, .elites = 2});
    const OptimizerBudget b{.max_evaluations = budget};
    const auto got = ga.optimize(batched, problem.task_count(),
                                 problem.tile_count(), b, 11);
    const auto want = ga.optimize(scalar, problem.task_count(),
                                  problem.tile_count(), b, 11);

    EXPECT_EQ(got.best_fitness, want.best_fitness);
    EXPECT_TRUE(got.best == want.best);
    EXPECT_EQ(got.evaluations, want.evaluations);
    EXPECT_EQ(got.iterations, want.iterations);
    ASSERT_EQ(got.trace.size(), want.trace.size());
    for (std::size_t i = 0; i < got.trace.size(); ++i) {
      EXPECT_EQ(got.trace[i].evaluation, want.trace[i].evaluation);
      EXPECT_EQ(got.trace[i].fitness, want.trace[i].fitness);
    }
    expect_same_counters(batched, plain);
  }
}

/// The batched Sample-cell body vs the scalar per-sample loop it
/// replaced: every histogram bin and running statistic bit-identical.
TEST(SampleBatch, CellDistributionMatchesScalarLoop) {
  SweepSpec spec;
  spec.add_workload("r9", make_cg(9, 61))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_seed_range(3, 1)
      .use_sampling({.samples_per_cell = 1000});
  const auto cells = expand(spec);
  ASSERT_EQ(cells.size(), 1u);
  const auto problems = build_sweep_problems(spec, cells);
  const auto& problem = *problems.begin()->second;

  const auto got = run_sweep_cell(spec, cells[0], problem, {});
  ASSERT_EQ(got.status, CellStatus::Ok) << got.error;

  // The pre-batching reference body, verbatim.
  const auto& s = spec.sampling;
  DistributionResult want;
  want.metrics = {
      {"snr_db", Histogram(s.snr_lo_db, s.snr_hi_db, s.snr_bins), {}},
      {"loss_db", Histogram(s.loss_lo_db, s.loss_hi_db, s.loss_bins), {}}};
  const Evaluator evaluator(problem, {});
  Rng rng(got.seed);
  for (std::uint64_t i = 0; i < s.samples_per_cell; ++i) {
    const auto mapping =
        Mapping::random(problem.task_count(), problem.tile_count(), rng);
    const auto evaluation = evaluator.evaluate_raw(mapping);
    want.metrics[0].histogram.add(evaluation.worst_snr_db);
    want.metrics[0].stats.add(evaluation.worst_snr_db);
    want.metrics[1].histogram.add(evaluation.worst_loss_db);
    want.metrics[1].stats.add(evaluation.worst_loss_db);
  }
  want.samples = s.samples_per_cell;

  EXPECT_TRUE(identical_distributions(got.distribution, want));
}

TEST(BatchEval, SharedPlanAcrossEvaluators) {
  const auto net = make_net("torus", 3);
  const auto cg = make_cg(8, 13);
  auto plan = std::make_shared<const BatchEvalPlan>(*net, cg);
  BatchEvaluator a(plan), b(plan);
  Rng rng(17);
  const auto flat = random_batch(5, cg.task_count(), net->tile_count(), rng);
  std::vector<BatchPoint> pa(5), pb(5);
  a.evaluate(flat, 5, pa);
  b.evaluate(flat, 5, pb);
  for (std::size_t i = 0; i < 5; ++i) {
    expect_bitwise(pa[i].worst_snr_db, pb[i].worst_snr_db, "shared-plan snr",
                   i);
    expect_bitwise(pa[i].worst_loss_db, pb[i].worst_loss_db,
                   "shared-plan loss", i);
  }
}

}  // namespace
}  // namespace phonoc
