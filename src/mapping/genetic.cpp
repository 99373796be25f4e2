#include "mapping/genetic.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace phonoc {

namespace {

/// A permutation of all tiles; positions [0, tasks) are the assignment.
struct Individual {
  std::vector<TileId> perm;
  double fitness = 0.0;
};

Mapping to_mapping(const std::vector<TileId>& perm, std::size_t tasks,
                   std::size_t tiles) {
  std::vector<TileId> assignment(perm.begin(),
                                 perm.begin() + static_cast<long>(tasks));
  return Mapping::from_assignment(std::move(assignment), tiles);
}

std::vector<TileId> random_permutation(std::size_t tiles, Rng& rng) {
  std::vector<TileId> perm(tiles);
  std::iota(perm.begin(), perm.end(), TileId{0});
  rng.shuffle(perm);
  return perm;
}

}  // namespace

std::vector<TileId> pmx_crossover(const std::vector<TileId>& parent_a,
                                  const std::vector<TileId>& parent_b,
                                  std::size_t lo, std::size_t hi) {
  const auto n = parent_a.size();
  require(parent_b.size() == n && lo <= hi && hi < n,
          "pmx_crossover: invalid arguments");
  std::vector<TileId> child(n, kInvalidTile);
  std::vector<int> position_in_child(n, -1);  // tile -> child index

  // Copy the cut segment from parent A.
  for (std::size_t i = lo; i <= hi; ++i) {
    child[i] = parent_a[i];
    position_in_child[parent_a[i]] = static_cast<int>(i);
  }
  // Place parent B's segment genes displaced by the copy.
  for (std::size_t i = lo; i <= hi; ++i) {
    const TileId gene = parent_b[i];
    if (position_in_child[gene] >= 0) continue;  // already present
    // Follow the PMX chain: the slot of gene in B is occupied by A's
    // value there; find where that value sits in B, repeatedly.
    std::size_t slot = i;
    while (slot >= lo && slot <= hi) {
      const TileId displaced = parent_a[slot];
      slot = static_cast<std::size_t>(
          std::find(parent_b.begin(), parent_b.end(), displaced) -
          parent_b.begin());
    }
    child[slot] = gene;
    position_in_child[gene] = static_cast<int>(slot);
  }
  // Fill the rest from parent B verbatim.
  for (std::size_t i = 0; i < n; ++i) {
    if (child[i] != kInvalidTile) continue;
    child[i] = parent_b[i];
  }
  return child;
}

std::vector<TileId> ox_crossover(const std::vector<TileId>& parent_a,
                                 const std::vector<TileId>& parent_b,
                                 std::size_t lo, std::size_t hi) {
  const auto n = parent_a.size();
  require(parent_b.size() == n && lo <= hi && hi < n,
          "ox_crossover: invalid arguments");
  std::vector<TileId> child(n, kInvalidTile);
  std::vector<bool> used(n, false);
  for (std::size_t i = lo; i <= hi; ++i) {
    child[i] = parent_a[i];
    used[parent_a[i]] = true;
  }
  // Fill remaining slots in parent B's cyclic order starting after hi.
  std::size_t write = (hi + 1) % n;
  for (std::size_t step = 0; step < n; ++step) {
    const TileId gene = parent_b[(hi + 1 + step) % n];
    if (used[gene]) continue;
    child[write] = gene;
    used[gene] = true;
    write = (write + 1) % n;
    while (write >= lo && write <= hi) write = (write + 1) % n;
  }
  return child;
}

GeneticAlgorithm::GeneticAlgorithm(GeneticOptions options)
    : options_(options) {
  require(options_.population >= 2, "GeneticAlgorithm: population >= 2");
  require(options_.tournament >= 1, "GeneticAlgorithm: tournament >= 1");
  require(options_.elites < options_.population,
          "GeneticAlgorithm: elites must be < population");
  require(options_.crossover_rate >= 0.0 && options_.crossover_rate <= 1.0,
          "GeneticAlgorithm: crossover_rate in [0,1]");
  require(options_.mutation_rate >= 0.0 && options_.mutation_rate < 1.0,
          "GeneticAlgorithm: mutation_rate in [0,1)");
}

OptimizerResult GeneticAlgorithm::optimize(FitnessFunction& fitness,
                                           std::size_t task_count,
                                           std::size_t tile_count,
                                           const OptimizerBudget& budget,
                                           std::uint64_t seed) const {
  SearchState state(fitness, task_count, tile_count, budget, seed);
  auto& rng = state.rng();

  // Score each individual through `state` as it is generated.
  const auto scored = [&](std::vector<TileId> perm) {
    const double f = state.evaluate(to_mapping(perm, task_count, tile_count));
    return Individual{std::move(perm), f};
  };

  // Initial population.
  std::vector<Individual> population;
  population.reserve(options_.population);
  while (population.size() < options_.population && !state.exhausted())
    population.push_back(scored(random_permutation(tile_count, rng)));
  if (population.empty()) {
    // Budget smaller than one population: fall back to a single sample.
    (void)scored(random_permutation(tile_count, rng));
    return state.finish(0);
  }

  const auto tournament_pick = [&]() -> const Individual& {
    const Individual* best =
        &population[rng.next_below(population.size())];
    for (std::size_t k = 1; k < options_.tournament; ++k) {
      const Individual& other =
          population[rng.next_below(population.size())];
      if (other.fitness > best->fitness) best = &other;
    }
    return *best;
  };

  std::uint64_t generations = 0;
  while (!state.exhausted()) {
    ++generations;
    std::sort(population.begin(), population.end(),
              [](const Individual& x, const Individual& y) {
                return x.fitness > y.fitness;
              });
    std::vector<Individual> next;
    next.reserve(options_.population);
    for (std::size_t e = 0; e < options_.elites; ++e)
      next.push_back(population[e]);

    // Selection and variation read only the current generation (whose
    // fitness is known) and the RNG, never a sibling's score.
    while (next.size() < options_.population && !state.exhausted()) {
      const auto& parent_a = tournament_pick();
      const auto& parent_b = tournament_pick();
      std::vector<TileId> child_perm;
      if (rng.next_bool(options_.crossover_rate)) {
        auto lo = static_cast<std::size_t>(rng.next_below(tile_count));
        auto hi = static_cast<std::size_t>(rng.next_below(tile_count));
        if (lo > hi) std::swap(lo, hi);
        child_perm = options_.crossover == GeneticOptions::Crossover::Pmx
                         ? pmx_crossover(parent_a.perm, parent_b.perm, lo, hi)
                         : ox_crossover(parent_a.perm, parent_b.perm, lo, hi);
      } else {
        child_perm = parent_a.perm;
      }
      while (rng.next_bool(options_.mutation_rate)) {
        const auto i = rng.next_below(tile_count);
        const auto j = rng.next_below(tile_count);
        std::swap(child_perm[i], child_perm[j]);
      }
      next.push_back(scored(std::move(child_perm)));
    }
    if (!next.empty()) population = std::move(next);
  }
  return state.finish(generations);
}

}  // namespace phonoc
