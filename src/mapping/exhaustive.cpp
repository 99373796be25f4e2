#include "mapping/exhaustive.hpp"

namespace phonoc {

OptimizerResult ExhaustiveSearch::optimize(FitnessFunction& fitness,
                                           std::size_t task_count,
                                           std::size_t tile_count,
                                           const OptimizerBudget& budget,
                                           std::uint64_t seed) const {
  SearchState state(fitness, task_count, tile_count, budget, seed);

  std::vector<TileId> assignment(task_count, 0);
  std::vector<bool> used(tile_count, false);
  std::uint64_t complete = 0;

  // Iterative depth-first enumeration of injective assignments.
  const auto descend = [&](auto&& self, std::size_t task) -> void {
    if (state.exhausted()) return;
    if (task == task_count) {
      state.evaluate(Mapping::from_assignment(assignment, tile_count));
      ++complete;
      return;
    }
    for (TileId tile = 0; tile < tile_count; ++tile) {
      if (used[tile]) continue;
      used[tile] = true;
      assignment[task] = tile;
      self(self, task + 1);
      used[tile] = false;
      if (state.exhausted()) return;
    }
  };
  descend(descend, 0);
  (void)seed;  // enumeration is deterministic; seed only feeds SearchState
  return state.finish(complete);
}

}  // namespace phonoc
