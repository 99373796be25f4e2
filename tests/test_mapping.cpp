// Tests for the Mapping representation and the objectives.

#include <gtest/gtest.h>

#include <vector>

#include "mapping/mapping.hpp"
#include "mapping/objective.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace phonoc {
namespace {

TEST(Mapping, IdentityLayout) {
  const auto m = Mapping::identity(3, 5);
  EXPECT_EQ(m.task_count(), 3u);
  EXPECT_EQ(m.tile_count(), 5u);
  for (NodeId t = 0; t < 3; ++t) EXPECT_EQ(m.tile_of(t), t);
  EXPECT_EQ(m.task_at(0), 0);
  EXPECT_EQ(m.task_at(4), -1);
}

TEST(Mapping, RandomIsInjective) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto m = Mapping::random(6, 9, rng);
    std::vector<bool> used(9, false);
    for (NodeId t = 0; t < 6; ++t) {
      const auto tile = m.tile_of(t);
      ASSERT_LT(tile, 9u);
      ASSERT_FALSE(used[tile]);
      used[tile] = true;
      EXPECT_EQ(m.task_at(tile), static_cast<int>(t));
    }
  }
}

TEST(Mapping, RandomCoversDifferentLayouts) {
  Rng rng(6);
  const auto a = Mapping::random(4, 16, rng);
  const auto b = Mapping::random(4, 16, rng);
  EXPECT_FALSE(a == b);  // astronomically unlikely to collide
}

TEST(Mapping, FromAssignmentValidates) {
  EXPECT_NO_THROW(Mapping::from_assignment({2, 0, 1}, 4));
  EXPECT_THROW(Mapping::from_assignment({0, 0}, 4), InvalidArgument);
  EXPECT_THROW(Mapping::from_assignment({0, 9}, 4), InvalidArgument);
  EXPECT_THROW(Mapping::from_assignment({0, 1, 2, 3, 0}, 4),
               InvalidArgument);  // more tasks than tiles
}

TEST(Mapping, SwapTilesTaskTask) {
  auto m = Mapping::identity(3, 4);
  m.swap_tiles(0, 2);
  EXPECT_EQ(m.tile_of(0), 2u);
  EXPECT_EQ(m.tile_of(2), 0u);
  EXPECT_EQ(m.task_at(0), 2);
  EXPECT_EQ(m.task_at(2), 0);
  EXPECT_EQ(m.tile_of(1), 1u);  // untouched
}

TEST(Mapping, SwapTilesTaskEmpty) {
  auto m = Mapping::identity(2, 4);
  m.swap_tiles(1, 3);  // task 1 moves to the empty tile 3
  EXPECT_EQ(m.tile_of(1), 3u);
  EXPECT_EQ(m.task_at(1), -1);
  EXPECT_EQ(m.task_at(3), 1);
}

TEST(Mapping, SwapTilesEmptyEmptyAndSelf) {
  auto m = Mapping::identity(1, 4);
  const auto before = m;
  m.swap_tiles(2, 3);  // both empty
  EXPECT_TRUE(m == before);
  m.swap_tiles(1, 1);  // self swap
  EXPECT_TRUE(m == before);
}

TEST(Mapping, InverseStaysConsistentUnderManySwaps) {
  Rng rng(9);
  auto m = Mapping::random(5, 9, rng);
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<TileId>(rng.next_below(9));
    const auto b = static_cast<TileId>(rng.next_below(9));
    m.swap_tiles(a, b);
  }
  for (NodeId t = 0; t < 5; ++t)
    EXPECT_EQ(m.task_at(m.tile_of(t)), static_cast<int>(t));
  int occupied = 0;
  for (TileId tile = 0; tile < 9; ++tile)
    if (m.task_at(tile) >= 0) ++occupied;
  EXPECT_EQ(occupied, 5);
}

// --- objectives -------------------------------------------------------------------

EvaluationResult sample_result() {
  EvaluationResult r;
  r.worst_loss_db = -2.5;
  r.worst_snr_db = 18.0;
  return r;
}

TEST(Objective, WorstLossFitness) {
  const WorstLossObjective objective;
  EXPECT_DOUBLE_EQ(objective.fitness(sample_result()), -2.5);
  EXPECT_FALSE(objective.needs_noise());
  EXPECT_EQ(objective.name(), "worst_loss");
  // A mapping with less loss must score higher.
  auto better = sample_result();
  better.worst_loss_db = -1.0;
  EXPECT_GT(objective.fitness(better), objective.fitness(sample_result()));
}

TEST(Objective, WorstSnrFitness) {
  const WorstSnrObjective objective;
  EXPECT_DOUBLE_EQ(objective.fitness(sample_result()), 18.0);
  auto better = sample_result();
  better.worst_snr_db = 30.0;
  EXPECT_GT(objective.fitness(better), objective.fitness(sample_result()));
}

TEST(Objective, NeedsNoiseExactlyWhenFitnessReadsCrosstalk) {
  // The Evaluator skips the crosstalk walk for objectives answering
  // false, so a true answer must stand for every objective whose
  // fitness could read an SNR field.
  EXPECT_FALSE(WorstLossObjective().needs_noise());
  EXPECT_TRUE(WorstSnrObjective().needs_noise());
  EXPECT_FALSE(make_objective(OptimizationGoal::InsertionLoss)->needs_noise());
  EXPECT_TRUE(make_objective(OptimizationGoal::Snr)->needs_noise());
}

TEST(Objective, FactoryMatchesGoals) {
  EXPECT_EQ(make_objective(OptimizationGoal::InsertionLoss)->name(),
            "worst_loss");
  EXPECT_EQ(make_objective(OptimizationGoal::Snr)->name(), "worst_snr");
  EXPECT_EQ(to_string(OptimizationGoal::InsertionLoss), "insertion_loss");
  EXPECT_EQ(to_string(OptimizationGoal::Snr), "snr");
}

}  // namespace
}  // namespace phonoc
