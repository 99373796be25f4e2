#pragma once
/// \file objective.hpp
/// \brief Optimization objectives over evaluated mappings.
///
/// Fitness is always maximized. The two paper objectives (Eq. 3/4) are
/// worst-case insertion loss (dB values are negative, so maximizing
/// pushes the worst edge toward 0 dB) and worst-case SNR.

#include <memory>
#include <string>

#include "model/evaluation.hpp"

namespace phonoc {

/// The paper's two optimization goals.
enum class OptimizationGoal { InsertionLoss, Snr };

[[nodiscard]] std::string to_string(OptimizationGoal goal);

class Objective {
 public:
  virtual ~Objective() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Higher is better. The view form is the primary interface so the
  /// kernel's scratch can be folded without materializing an
  /// EvaluationResult per scoring; every path runs the same fold code,
  /// keeping fitness bit-identical. The Evaluator's fitness scorers
  /// pass no per-edge detail, so fitness reads only the two worst-case
  /// fields.
  [[nodiscard]] virtual double fitness(const EvaluationView& view) const = 0;
  /// Convenience for whole-mapping evaluation results.
  [[nodiscard]] double fitness(const EvaluationResult& r) const {
    return fitness(EvaluationView{r.worst_loss_db, r.worst_snr_db, r.edges});
  }
  /// True when fitness() reads crosstalk: `worst_snr_db`, or a per-edge
  /// `noise_gain` / `snr_db`. When false, the Evaluator scores fitness
  /// through the kernel's loss-only pass (no Eq. 4 pair walk), which
  /// leaves exactly those fields quiet NaN; the fitness is bitwise what
  /// a full scoring gives. Derived from what the objective reads —
  /// never a setting. Defaults to true, so a new objective is scored in
  /// full unless it declares otherwise.
  [[nodiscard]] virtual bool needs_noise() const { return true; }
};

/// Eq. (3): maximize the worst-case insertion loss (toward 0 dB).
class WorstLossObjective final : public Objective {
 public:
  using Objective::fitness;
  [[nodiscard]] std::string name() const override { return "worst_loss"; }
  [[nodiscard]] bool needs_noise() const override { return false; }
  [[nodiscard]] double fitness(const EvaluationView& v) const override {
    return v.worst_loss_db;
  }
};

/// Eq. (4): maximize the worst-case SNR.
class WorstSnrObjective final : public Objective {
 public:
  using Objective::fitness;
  [[nodiscard]] std::string name() const override { return "worst_snr"; }
  [[nodiscard]] double fitness(const EvaluationView& v) const override {
    return v.worst_snr_db;
  }
};

/// The paper objective for a goal.
[[nodiscard]] std::unique_ptr<Objective> make_objective(OptimizationGoal goal);

}  // namespace phonoc
