#include "mapping/objective.hpp"

namespace phonoc {

std::string to_string(OptimizationGoal goal) {
  return goal == OptimizationGoal::InsertionLoss ? "insertion_loss" : "snr";
}

std::unique_ptr<Objective> make_objective(OptimizationGoal goal) {
  if (goal == OptimizationGoal::InsertionLoss)
    return std::make_unique<WorstLossObjective>();
  return std::make_unique<WorstSnrObjective>();
}

}  // namespace phonoc
