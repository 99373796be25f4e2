#include "core/engine.hpp"

#include "mapping/branch_and_bound.hpp"
#include "mapping/greedy.hpp"
#include "mapping/registry.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace phonoc {

Engine::Engine(const MappingProblem& problem) : problem_(problem) {}

RunResult Engine::run(const std::string& optimizer_name,
                      const OptimizerBudget& budget,
                      std::uint64_t seed) const {
  Evaluator evaluator(problem_);
  return run_with(evaluator, optimizer_name, budget, seed);
}

RunResult Engine::run(const MappingOptimizer& optimizer,
                      const OptimizerBudget& budget,
                      std::uint64_t seed) const {
  Evaluator evaluator(problem_);
  return run_with(evaluator, optimizer, budget, seed);
}

RunResult Engine::run_with(Evaluator& evaluator,
                           const std::string& optimizer_name,
                           const OptimizerBudget& budget,
                           std::uint64_t seed) const {
  // Context-dependent strategies are constructed from the problem here;
  // everything else resolves through the registry.
  if (to_lower(optimizer_name) == "greedy") {
    const GreedyConstructive greedy(problem_.cg(),
                                    problem_.network().topology());
    return run_with(evaluator, greedy, budget, seed);
  }
  if (to_lower(optimizer_name) == "bnb") {
    const BranchAndBound bnb(problem_.cg(), problem_.network_ptr());
    return run_with(evaluator, bnb, budget, seed);
  }
  const auto optimizer = make_optimizer(optimizer_name);
  return run_with(evaluator, *optimizer, budget, seed);
}

RunResult Engine::run_with(Evaluator& evaluator,
                           const MappingOptimizer& optimizer,
                           const OptimizerBudget& budget,
                           std::uint64_t seed) const {
  require(&evaluator.problem() == &problem_,
          "Engine::run_with: the evaluator wraps a different problem");
  RunResult result;
  result.algorithm = optimizer.name();
  result.search = optimizer.optimize(evaluator, problem_.task_count(),
                                     problem_.tile_count(), budget, seed);
  result.best_evaluation = evaluator.evaluate_detailed(result.search.best);
  return result;
}

}  // namespace phonoc
