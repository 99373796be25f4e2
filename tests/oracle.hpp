#pragma once
// The reference every evaluation path is tested against: the plain
// `evaluate_mapping` loop over NetworkModel::path views, behind the
// optimizers' FitnessFunction interface with no move support (every
// propose_swap falls back to a whole-mapping `evaluate`).

#include <cstdint>
#include <string>

#include "core/engine.hpp"
#include "core/problem.hpp"
#include "mapping/registry.hpp"
#include "model/evaluation.hpp"

namespace phonoc {

class OracleFitness final : public FitnessFunction {
 public:
  explicit OracleFitness(const MappingProblem& problem) : problem_(problem) {}

  double evaluate(const Mapping& mapping) override {
    ++count_;
    return problem_.objective().fitness(evaluate_mapping(
        problem_.network(), problem_.cg(), mapping.assignment()));
  }

  /// Logical evaluations: one per evaluate/propose_swap call.
  [[nodiscard]] std::uint64_t evaluation_count() const noexcept {
    return count_;
  }

 private:
  const MappingProblem& problem_;
  std::uint64_t count_ = 0;
};

/// One registry optimizer run scored by the oracle, packaged like
/// Engine::run (the best mapping's detailed evaluation included).
inline RunResult oracle_run(const MappingProblem& problem,
                            const std::string& optimizer_name,
                            const OptimizerBudget& budget,
                            std::uint64_t seed) {
  const auto optimizer = make_optimizer(optimizer_name);
  OracleFitness fitness(problem);
  RunResult result;
  result.algorithm = optimizer->name();
  result.search = optimizer->optimize(fitness, problem.task_count(),
                                      problem.tile_count(), budget, seed);
  result.best_evaluation =
      evaluate_mapping(problem.network(), problem.cg(),
                       result.search.best.assignment(), /*detailed=*/true);
  return result;
}

}  // namespace phonoc
