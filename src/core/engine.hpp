#pragma once
/// \file engine.hpp
/// \brief The design space exploration engine: runs optimizers against a
/// problem and packages comparable results (the machinery behind the
/// paper's Table II).

#include <string>

#include "core/evaluator.hpp"
#include "core/problem.hpp"
#include "mapping/optimizer.hpp"

namespace phonoc {

/// Outcome of one optimizer run on one problem.
struct RunResult {
  std::string algorithm;
  OptimizerResult search;
  /// Detailed evaluation of the best mapping (both metrics + per-edge).
  EvaluationResult best_evaluation;
};

class Engine {
 public:
  /// run() scores on a fresh Evaluator with the default options; a
  /// caller that wants another memo capacity passes its own Evaluator
  /// to run_with().
  explicit Engine(const MappingProblem& problem);

  /// Run a registered optimizer by name ("greedy" is constructed from
  /// the problem's CG and topology).
  [[nodiscard]] RunResult run(const std::string& optimizer_name,
                              const OptimizerBudget& budget,
                              std::uint64_t seed) const;

  /// Run a caller-provided optimizer instance.
  [[nodiscard]] RunResult run(const MappingOptimizer& optimizer,
                              const OptimizerBudget& budget,
                              std::uint64_t seed) const;

  /// Run against a caller-owned Evaluator (which must wrap this
  /// engine's problem). The outcome is identical to run() — memo state
  /// can shift cost between cache hits and physical evaluations but
  /// never a fitness value or a logical count — while the evaluator,
  /// with its memo, kernels and counters, survives the call. This is
  /// how the mapping service (src/service/) reuses warm Evaluators
  /// across requests.
  [[nodiscard]] RunResult run_with(Evaluator& evaluator,
                                   const std::string& optimizer_name,
                                   const OptimizerBudget& budget,
                                   std::uint64_t seed) const;
  [[nodiscard]] RunResult run_with(Evaluator& evaluator,
                                   const MappingOptimizer& optimizer,
                                   const OptimizerBudget& budget,
                                   std::uint64_t seed) const;

  [[nodiscard]] const MappingProblem& problem() const noexcept {
    return problem_;
  }

 private:
  const MappingProblem& problem_;
};

}  // namespace phonoc
