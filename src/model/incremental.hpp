#pragma once
/// \file incremental.hpp
/// \brief A move-scoring shim for perfbench's layer probe
/// (perfbench/src/mapping_probe.cpp), whose `model.delta_us` times one
/// two-tile swap through it. Each proposed swap is scored whole through
/// the evaluation kernel (batch_eval.hpp), exactly as
/// `core::Evaluator::propose_swap` scores a move. Nothing in src/
/// calls it; it goes with the benchmark's next change.

#include <span>
#include <vector>

#include "graph/comm_graph.hpp"
#include "model/batch_eval.hpp"
#include "model/evaluation.hpp"
#include "model/network_model.hpp"

namespace phonoc {

class IncrementalEvaluation {
 public:
  /// The network and the CG must outlive the shim.
  IncrementalEvaluation(const NetworkModel& net, const CommGraph& cg)
      : kernel_(net, cg) {}

  /// Adopt and score `assignment` (task -> tile), validated like
  /// `evaluate_mapping`.
  void reset(std::span<const TileId> assignment) {
    assignment_.assign(assignment.begin(), assignment.end());
    score();
  }

  /// Swap the tasks on tiles `a` and `b` and score the result whole.
  void propose_swap(TileId a, TileId b) {
    swap_tiles(a, b);
    last_a_ = a;
    last_b_ = b;
    before_ = point_;
    score();
  }

  /// Undo the last proposal: swap back and restore its score.
  void revert() {
    swap_tiles(last_a_, last_b_);
    point_ = before_;
  }

  /// The current worst-case pair; no per-edge detail.
  [[nodiscard]] EvaluationView view() const noexcept {
    return EvaluationView{point_.worst_loss_db, point_.worst_snr_db, {}};
  }

 private:
  void swap_tiles(TileId a, TileId b) noexcept {
    for (auto& tile : assignment_) {
      if (tile == a)
        tile = b;
      else if (tile == b)
        tile = a;
    }
  }
  void score() { point_ = kernel_.evaluate(assignment_); }

  BatchEvaluator kernel_;
  std::vector<TileId> assignment_;
  BatchPoint point_;
  BatchPoint before_;
  TileId last_a_ = 0;
  TileId last_b_ = 0;
};

}  // namespace phonoc
