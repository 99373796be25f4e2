// Bit-identity oracle for the evaluation kernel: across mesh/ring/torus
// topologies and random CGs, a sequence of mappings (every third a
// repeat) scored one call at a time through one kernel, with full,
// detailed and loss-only calls interleaved, must equal a fresh
// per-mapping `evaluate_mapping` bitwise (tolerance 0) in every metric
// and EdgeMetrics row; on a 9x9 mesh (two mask words) too, and for a
// pair sharing three tiles. Also covers the Evaluator's remaining
// multi-mapping entries (the `evaluate_batch` default loop's memo state
// and counters, and rejecting a mapping wider than the network) and the
// Sample-cell body.

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

/// `count` random assignments in which every third repeats the one
/// before it: real consumers (GA populations, warm services) score
/// repeats.
std::vector<std::vector<TileId>> random_sequence(std::size_t count,
                                                 std::size_t tasks,
                                                 std::size_t tiles, Rng& rng) {
  std::vector<std::vector<TileId>> sequence;
  sequence.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 3 == 2) {
      sequence.push_back(sequence.back());
      continue;
    }
    const Mapping m = Mapping::random(tasks, tiles, rng);
    sequence.emplace_back(m.assignment().begin(), m.assignment().end());
  }
  return sequence;
}

void expect_bitwise(double actual, double expected, const char* what,
                    std::size_t row) {
  EXPECT_EQ(std::memcmp(&actual, &expected, sizeof(double)), 0)
      << what << " diverges at mapping " << row << ": " << actual
      << " vs " << expected;
}

/// Score `count` random mappings (every third a repeat) one call at a
/// time through one kernel. Each mapping gets a full call, a detailed
/// call and a loss-only call with detail, in an order that rotates from
/// mapping to mapping, so every kind of call runs on scratch that every
/// other kind left behind. Each result must equal `evaluate_mapping`
/// bitwise; the loss-only call leaves every noise field NaN.
void expect_kernel_matches_oracle(const NetworkModel& net,
                                  const CommGraph& cg, std::size_t count,
                                  Rng& rng) {
  BatchEvaluator kernel(net, cg);
  const std::size_t edges = cg.edges().size();
  ASSERT_EQ(kernel.plan().edge_count(), edges);

  const auto sequence =
      random_sequence(count, cg.task_count(), net.tile_count(), rng);
  std::vector<EdgeMetrics> detail(edges);
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const auto& assignment = sequence[i];
    const auto full = evaluate_mapping(net, cg, assignment, /*detailed=*/true);
    ASSERT_EQ(full.edges.size(), edges);
    for (std::size_t step = 0; step < 3; ++step) {
      switch ((i + step) % 3) {
        case 0: {
          const BatchPoint point = kernel.evaluate(assignment);
          expect_bitwise(point.worst_loss_db, full.worst_loss_db,
                         "worst_loss_db", i);
          expect_bitwise(point.worst_snr_db, full.worst_snr_db,
                         "worst_snr_db", i);
          break;
        }
        case 1: {
          const BatchPoint point = kernel.evaluate(assignment, detail);
          expect_bitwise(point.worst_loss_db, full.worst_loss_db,
                         "detailed worst_loss_db", i);
          expect_bitwise(point.worst_snr_db, full.worst_snr_db,
                         "detailed worst_snr_db", i);
          for (std::size_t e = 0; e < edges; ++e) {
            const auto& got = detail[e];
            const auto& want = full.edges[e];
            EXPECT_EQ(got.edge, want.edge);
            EXPECT_EQ(got.src_tile, want.src_tile);
            EXPECT_EQ(got.dst_tile, want.dst_tile);
            expect_bitwise(got.loss_db, want.loss_db, "edge loss_db", i);
            expect_bitwise(got.signal_gain, want.signal_gain,
                           "edge signal_gain", i);
            expect_bitwise(got.noise_gain, want.noise_gain, "edge noise_gain",
                           i);
            expect_bitwise(got.snr_db, want.snr_db, "edge snr_db", i);
          }
          break;
        }
        default: {
          // The loss-only pass scores the loss fields bitwise like the
          // full pass and leaves every noise field NaN.
          const BatchPoint point =
              kernel.evaluate(assignment, detail, /*noise=*/false);
          expect_bitwise(point.worst_loss_db, full.worst_loss_db,
                         "loss-only worst_loss_db", i);
          EXPECT_TRUE(std::isnan(point.worst_snr_db)) << "mapping " << i;
          for (std::size_t e = 0; e < edges; ++e) {
            const auto& got = detail[e];
            const auto& want = full.edges[e];
            EXPECT_EQ(got.edge, want.edge);
            EXPECT_EQ(got.src_tile, want.src_tile);
            EXPECT_EQ(got.dst_tile, want.dst_tile);
            expect_bitwise(got.loss_db, want.loss_db, "loss-only edge loss_db",
                           i);
            expect_bitwise(got.signal_gain, want.signal_gain,
                           "loss-only edge signal_gain", i);
            EXPECT_TRUE(std::isnan(got.noise_gain)) << "mapping " << i;
            EXPECT_TRUE(std::isnan(got.snr_db)) << "mapping " << i;
          }
          break;
        }
      }
    }
  }
}

class KernelBitIdentity : public ::testing::TestWithParam<std::string> {};

// Torus side 4 exercises wraparound routes.
TEST_P(KernelBitIdentity, MatchesEvaluateMappingBitwise) {
  const auto net = make_net(GetParam(), 4);
  const auto cg = make_cg(12, 101);
  Rng rng(0x9e3779b9u);
  expect_kernel_matches_oracle(*net, cg, 61, rng);
}

INSTANTIATE_TEST_SUITE_P(Topologies, KernelBitIdentity,
                         ::testing::Values("mesh", "ring", "torus"));

// 81 tiles take two mask words: the wide sieve, and the ordered hop
// walk on every surviving pair.
TEST(BatchEval, TwoMaskWordsMatchOracle) {
  const auto net = make_net("mesh", 9);
  ASSERT_EQ(net->store().mask_words, 2u);
  const auto cg = make_cg(40, 211);
  Rng rng(311);
  expect_kernel_matches_oracle(*net, cg, 12, rng);
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
  BatchEvaluator kernel(net, cg);
  std::vector<EdgeMetrics> detail(2);
  const BatchPoint point = kernel.evaluate(assignment, detail);
  expect_bitwise(point.worst_snr_db, full.worst_snr_db, "worst_snr_db", 0);
  for (std::size_t e = 0; e < 2; ++e)
    expect_bitwise(detail[e].noise_gain, full.edges[e].noise_gain,
                   "edge noise_gain", e);
}

TEST(BatchEval, ZeroEdgeCgYieldsCeiling) {
  const auto net = make_net("mesh", 2);
  CommGraph cg("edgeless");
  for (int t = 0; t < 3; ++t) cg.add_task("t" + std::to_string(t));
  BatchEvaluator kernel(*net, cg);
  Rng rng(5);
  const auto sequence = random_sequence(4, 3, net->tile_count(), rng);
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const BatchPoint point = kernel.evaluate(sequence[i]);
    const auto full = evaluate_mapping(*net, cg, sequence[i]);
    expect_bitwise(point.worst_loss_db, full.worst_loss_db, "worst_loss_db",
                   i);
    expect_bitwise(point.worst_snr_db, full.worst_snr_db, "worst_snr_db", i);
  }
}

TEST(BatchEval, ValidatedEntryRejectsBadAssignments) {
  const auto net = make_net("mesh", 2);
  const auto cg = make_cg(4, 7);
  BatchEvaluator kernel(*net, cg);

  const std::vector<TileId> duplicate_tile{0, 1, 1, 2};
  EXPECT_THROW((void)kernel.evaluate(duplicate_tile), InvalidArgument);
  const std::vector<TileId> out_of_range{0, 1, 2, 99};
  EXPECT_THROW((void)kernel.evaluate(out_of_range), InvalidArgument);
  const std::vector<TileId> wrong_size{0, 1, 2};
  EXPECT_THROW((void)kernel.evaluate(wrong_size), InvalidArgument);
  const std::vector<TileId> valid{0, 1, 2, 3};
  std::vector<EdgeMetrics> wrong_detail(cg.edges().size() + 1);
  EXPECT_THROW((void)kernel.evaluate(valid, wrong_detail), InvalidArgument);
  // A rejected call leaves the scratch clean for the next one.
  const auto full = evaluate_mapping(*net, cg, valid);
  const BatchPoint point = kernel.evaluate(valid);
  expect_bitwise(point.worst_snr_db, full.worst_snr_db, "worst_snr_db", 0);
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

/// `evaluate_batch` (the `FitnessFunction` default loop, which
/// perfbench's layer probe forwards to) must be indistinguishable from
/// a sequential loop of `evaluate` calls: fitness values, all five
/// counters, and the memo's contents + recency order (observed via
/// export_memo).
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

/// The Mapping invariant bounds tiles only by the mapping's own tile
/// count: a mapping built for a larger grid must be rejected by every
/// entry, not read out of bounds.
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

/// The Sample-cell body vs a per-sample `evaluate_raw` loop written out
/// here: every histogram bin and running statistic bit-identical.
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

  const auto got = run_sweep_cell(spec, cells[0], problem);
  ASSERT_EQ(got.status, CellStatus::Ok) << got.error;

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

}  // namespace
}  // namespace phonoc
