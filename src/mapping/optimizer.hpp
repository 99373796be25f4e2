#pragma once
/// \file optimizer.hpp
/// \brief Mapping-optimizer interface and the shared search bookkeeping
/// (budget, incumbent tracking, improvement trace).
///
/// Optimizers are deterministic functions of (fitness function, problem
/// dimensions, budget, seed). Budgets are expressed in evaluations by
/// default — the machine-independent analogue of the paper's "same
/// running time" rule — with an optional wall-clock cap.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mapping/mapping.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace phonoc {

/// Fitness callback: higher is better. Implemented by core::Evaluator.
///
/// Beyond whole-mapping evaluation, the interface carries a transactional
/// *move* API for neighborhood searches (SA / tabu / R-PBLA, whose move
/// is a two-tile swap): `propose_swap` evaluates the mapping that
/// results from one swap, then exactly one of `commit_move` (keep it) or
/// `revert_move` (restore the previous state) follows. `apply_move`
/// adopts a swap whose fitness is already known without spending an
/// evaluation. The defaults score a proposal through `evaluate` and do
/// nothing otherwise, so state-free fitness functions need not override
/// anything. One proposal may be outstanding at a time. Every
/// `propose_swap` counts as one *logical* evaluation, exactly like
/// `evaluate` — budgets and determinism contracts observe logical
/// evaluations, never the physical work done.
class FitnessFunction {
 public:
  virtual ~FitnessFunction() = default;
  [[nodiscard]] virtual double evaluate(const Mapping& mapping) = 0;

  /// Score a batch: `out[i]` = fitness of `mappings[i]`, semantically
  /// identical to calling `evaluate` in index order — same values, same
  /// logical counting, same memo trajectory. Implementations may
  /// override to amortize the physical work (core::Evaluator routes the
  /// batch through the SoA kernel); the default simply loops.
  virtual void evaluate_batch(std::span<const Mapping> mappings,
                              std::span<double> out) {
    for (std::size_t i = 0; i < mappings.size(); ++i)
      out[i] = evaluate(mappings[i]);
  }

  /// True when `propose_swap` is scored by the implementation itself,
  /// not by the `evaluate` fallback.
  [[nodiscard]] virtual bool supports_moves() const { return false; }
  /// Fitness of `after`, which is the previous mapping with the (a, b)
  /// tile swap already applied.
  [[nodiscard]] virtual double propose_swap(const Mapping& after, TileId a,
                                            TileId b) {
    (void)a;
    (void)b;
    return evaluate(after);
  }
  virtual void commit_move() {}
  virtual void revert_move() {}
  /// Adopt the (a, b) swap (already applied in `after`) without counting
  /// an evaluation; used when the move's fitness is already known.
  virtual void apply_move(const Mapping& after, TileId a, TileId b) {
    (void)after;
    (void)a;
    (void)b;
  }
};

struct OptimizerBudget {
  /// Hard cap on fitness evaluations (0 = unlimited; then max_seconds
  /// must be set).
  std::uint64_t max_evaluations = 20000;
  /// Wall-clock cap in seconds (0 = none).
  double max_seconds = 0.0;
};

/// One improvement event: evaluation count at which a new incumbent was
/// found, and its fitness.
struct ImprovementEvent {
  std::uint64_t evaluation;
  double fitness;
};

struct OptimizerResult {
  Mapping best;
  double best_fitness = 0.0;
  std::uint64_t evaluations = 0;
  double seconds = 0.0;
  std::vector<ImprovementEvent> trace;
  /// Algorithm-specific counter (GA: generations; R-PBLA: restarts;
  /// SA: temperature steps). Informational.
  std::uint64_t iterations = 0;
};

/// Shared bookkeeping used by every optimizer implementation.
class SearchState {
 public:
  SearchState(FitnessFunction& fitness, std::size_t task_count,
              std::size_t tile_count, OptimizerBudget budget,
              std::uint64_t seed);

  [[nodiscard]] std::size_t task_count() const noexcept { return tasks_; }
  [[nodiscard]] std::size_t tile_count() const noexcept { return tiles_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// True once the evaluation or time budget is exhausted.
  [[nodiscard]] bool exhausted() const;

  /// Evaluate a candidate, tracking the incumbent and the trace.
  double evaluate(const Mapping& mapping);

  /// Batched `evaluate`: scores every candidate through the fitness
  /// function's batch entry, then records each result in index order —
  /// incumbent, trace and evaluation counts are identical to calling
  /// `evaluate` per mapping. Callers size batches with
  /// `remaining_evaluations()` so the evaluation budget is never
  /// overshot.
  void evaluate_batch(std::span<const Mapping> mappings,
                      std::span<double> out);

  /// Evaluations left under the budget's evaluation cap;
  /// UINT64_MAX when the budget is time-only.
  [[nodiscard]] std::uint64_t remaining_evaluations() const noexcept;

  /// Move-based search steps. `propose_swap` applies the (a, b) tile
  /// swap to `current`, scores it through the fitness function's move
  /// API (one logical evaluation, incumbent-tracked like `evaluate`),
  /// and leaves the swap applied; the caller then either commits or
  /// reverts (which undoes the swap in `current`). `apply_move` adopts
  /// a swap whose fitness is already known without spending an
  /// evaluation — the optimizer protocols (tabu / R-PBLA) re-apply the
  /// winning candidate this way, exactly as the whole-mapping code did.
  double propose_swap(Mapping& current, TileId a, TileId b);
  void commit_move();
  void revert_move(Mapping& current, TileId a, TileId b);
  void apply_move(Mapping& current, TileId a, TileId b);

  [[nodiscard]] bool has_best() const noexcept { return has_best_; }
  [[nodiscard]] const Mapping& best() const;
  [[nodiscard]] double best_fitness() const noexcept { return best_fitness_; }
  [[nodiscard]] std::uint64_t evaluations() const noexcept { return evals_; }

  /// Package the result; `iterations` is the algorithm-specific counter.
  [[nodiscard]] OptimizerResult finish(std::uint64_t iterations) const;

 private:
  /// Count one logical evaluation and track the incumbent/trace.
  void record(const Mapping& mapping, double fitness);

  FitnessFunction& fitness_;
  std::size_t tasks_;
  std::size_t tiles_;
  OptimizerBudget budget_;
  Rng rng_;
  Timer timer_;
  std::uint64_t evals_ = 0;
  bool has_best_ = false;
  Mapping best_;
  double best_fitness_ = 0.0;
  std::vector<ImprovementEvent> trace_;
};

class MappingOptimizer {
 public:
  virtual ~MappingOptimizer() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Run the search. Guarantees at least one evaluation even with a
  /// zero budget so the result always carries a valid mapping.
  [[nodiscard]] virtual OptimizerResult optimize(FitnessFunction& fitness,
                                                 std::size_t task_count,
                                                 std::size_t tile_count,
                                                 const OptimizerBudget& budget,
                                                 std::uint64_t seed) const = 0;
};

}  // namespace phonoc
