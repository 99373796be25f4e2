#include "mapping/optimizer.hpp"

#include "util/error.hpp"

namespace phonoc {

SearchState::SearchState(FitnessFunction& fitness, std::size_t task_count,
                         std::size_t tile_count, OptimizerBudget budget,
                         std::uint64_t seed)
    : fitness_(fitness),
      tasks_(task_count),
      tiles_(tile_count),
      budget_(budget),
      rng_(seed) {
  require(task_count >= 1, "SearchState: no tasks");
  require(task_count <= tile_count,
          "SearchState: more tasks than tiles (violates Eq. 2)");
  require(budget_.max_evaluations > 0 || budget_.max_seconds > 0.0,
          "SearchState: empty budget");
}

bool SearchState::exhausted() const {
  if (budget_.max_evaluations > 0 && evals_ >= budget_.max_evaluations)
    return true;
  if (budget_.max_seconds > 0.0 &&
      timer_.elapsed_seconds() >= budget_.max_seconds)
    return true;
  return false;
}

double SearchState::evaluate(const Mapping& mapping) {
  const double fitness = fitness_.evaluate(mapping);
  record(mapping, fitness);
  return fitness;
}

double SearchState::propose_swap(Mapping& current, TileId a, TileId b) {
  current.swap_tiles(a, b);
  const double fitness = fitness_.propose_swap(current, a, b);
  record(current, fitness);
  return fitness;
}

void SearchState::commit_move() { fitness_.commit_move(); }

void SearchState::revert_move(Mapping& current, TileId a, TileId b) {
  current.swap_tiles(a, b);
  fitness_.revert_move();
}

void SearchState::apply_move(Mapping& current, TileId a, TileId b) {
  current.swap_tiles(a, b);
  fitness_.apply_move(current, a, b);
}

void SearchState::record(const Mapping& mapping, double fitness) {
  ++evals_;
  if (!has_best_ || fitness > best_fitness_) {
    has_best_ = true;
    best_ = mapping;
    best_fitness_ = fitness;
    trace_.push_back(ImprovementEvent{evals_, fitness});
  }
}

const Mapping& SearchState::best() const {
  require(has_best_, "SearchState: no evaluation performed yet");
  return best_;
}

OptimizerResult SearchState::finish(std::uint64_t iterations) const {
  require(has_best_, "SearchState: optimizer performed no evaluation");
  OptimizerResult result;
  result.best = best_;
  result.best_fitness = best_fitness_;
  result.evaluations = evals_;
  result.seconds = timer_.elapsed_seconds();
  result.trace = trace_;
  result.iterations = iterations;
  return result;
}

}  // namespace phonoc
