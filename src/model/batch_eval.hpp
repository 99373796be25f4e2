#pragma once
/// \file batch_eval.hpp
/// \brief The evaluation kernel over the NetworkModel's path store:
/// batched whole-mapping scoring, plus the victim probe and the one
/// pair routine that the delta kernel (incremental.hpp) shares.
///
/// A `BatchEvalPlan` adds only the CG's shape to the store (edge
/// endpoints and the task -> edge adjacency; O(|E|), no path data). A
/// `BatchEvaluator` resolves each mapping's edges to path ids, runs a
/// vectorized tile-mask sieve per victim edge (pairs sharing no tile
/// contribute exactly +0.0 and are skipped), loads the victim's probe
/// row and calls `pair_noise` on each surviving attacker.
///
/// Bit-identity contract: every metric equals `evaluate_mapping` of the
/// same assignment bitwise — the same per-term operands and
/// association, per-attacker subtotals folded in ascending edge order
/// (skipped terms are exact +0.0, the identity on a non-negative sum),
/// and the same std::min folds (src/model/README.md has the argument).
/// A loss-only pass (`noise == false`) scores the loss metrics the same
/// way and skips the crosstalk walk, leaving every noise field NaN.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/comm_graph.hpp"
#include "model/evaluation.hpp"
#include "model/network_model.hpp"

namespace phonoc {

/// Worst-case metrics of one scored mapping (the Fig. 3 pair).
struct BatchPoint {
  double worst_loss_db = 0.0;
  double worst_snr_db = 0.0;
};

/// Per-thread victim-side probe over a path store: `row()[tile]` is the
/// loaded victim path's hop index at `tile`, or -1. Loading a path
/// clears the previous one, so a load costs O(hops), not O(tiles).
class VictimProbe {
 public:
  explicit VictimProbe(std::size_t tiles) : row_(tiles, std::int16_t{-1}) {}

  void load(const PathStore& store, std::size_t path) noexcept {
    if (path == path_) return;
    for (std::size_t h = begin_; h < end_; ++h) row_[store.hops[h].tile] = -1;
    path_ = path;
    begin_ = store.hop_begin[path];
    end_ = store.hop_begin[path + 1];
    for (std::size_t h = begin_; h < end_; ++h)
      row_[store.hops[h].tile] = static_cast<std::int16_t>(h - begin_);
  }

  [[nodiscard]] const std::int16_t* row() const noexcept {
    return row_.data();
  }
  /// First hop of the loaded victim in the store's per-hop arrays.
  [[nodiscard]] std::size_t begin() const noexcept { return begin_; }

 private:
  std::vector<std::int16_t> row_;
  std::size_t path_ = ~std::size_t{0};
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

/// The one pair routine: noise (linear, per unit attacker injected
/// power) that path `attacker` adds onto the victim loaded in `probe`.
/// One term per attacker hop at a tile the victim visits, summed in
/// ascending attacker-hop order from 0.0 — the operand values,
/// association and order of `noise_contribution`.
[[nodiscard]] inline double pair_noise(const PathStore& store,
                                       const VictimProbe& probe,
                                       std::size_t attacker) noexcept {
  const std::int16_t* victim_row = probe.row();
  const std::size_t vbase = probe.begin();
  const std::size_t end = store.hop_begin[attacker + 1];
  double contribution = 0.0;
  for (std::size_t h = store.hop_begin[attacker]; h < end; ++h) {
    const int vi = victim_row[store.hops[h].tile];
    if (vi < 0) continue;
    const std::size_t vh = vbase + static_cast<std::size_t>(vi);
    contribution +=
        store.arrive_gain[h] *
        store.pair_gain[store.conn[vh] * store.conns + store.conn[h]] *
        store.exit_suffix[vh];
  }
  return contribution;
}

/// The CG's shape over one NetworkModel's path store: edge endpoints
/// and the task -> incident-edge adjacency, O(|E|) to build. It copies
/// no path data. Immutable, so any number of kernels (one per thread)
/// can share it. The network and CG must outlive the plan.
class BatchEvalPlan {
 public:
  BatchEvalPlan(const NetworkModel& net, const CommGraph& cg);

  [[nodiscard]] const NetworkModel& network() const noexcept { return *net_; }
  [[nodiscard]] std::size_t tile_count() const noexcept {
    return net_->tile_count();
  }
  [[nodiscard]] std::size_t task_count() const noexcept { return tasks_; }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edge_src_.size();
  }
  [[nodiscard]] double snr_ceiling_db() const noexcept {
    return net_->options().snr_ceiling_db;
  }
  [[nodiscard]] NodeId edge_src(std::size_t e) const noexcept {
    return edge_src_[e];
  }
  [[nodiscard]] NodeId edge_dst(std::size_t e) const noexcept {
    return edge_dst_[e];
  }
  /// Path id of edge `e` under `assignment` (task -> tile).
  [[nodiscard]] std::size_t edge_path(std::span<const TileId> assignment,
                                      std::size_t e) const noexcept {
    return net_->path_id(assignment[edge_src_[e]], assignment[edge_dst_[e]]);
  }
  /// CG edges incident to `task` (as source or destination), ascending.
  [[nodiscard]] std::span<const std::uint32_t> task_edges(
      NodeId task) const noexcept {
    return task_edges_[task];
  }

 private:
  const NetworkModel* net_;
  std::size_t tasks_;
  std::vector<NodeId> edge_src_;
  std::vector<NodeId> edge_dst_;
  std::vector<std::vector<std::uint32_t>> task_edges_;
};

/// Batched scorer over a shared plan. Owns reusable per-batch scratch,
/// so one instance serves one thread; create one per worker (exactly
/// how cells already own their Evaluator).
class BatchEvaluator {
 public:
  /// Convenience: build (and own) a fresh plan.
  BatchEvaluator(const NetworkModel& net, const CommGraph& cg);
  /// Share an existing plan (must be non-null).
  explicit BatchEvaluator(std::shared_ptr<const BatchEvalPlan> plan);

  [[nodiscard]] const BatchEvalPlan& plan() const noexcept { return *plan_; }

  /// Score `batch` assignments laid out row-major in `assignments`
  /// (`batch * task_count` tiles). Every assignment is validated
  /// exactly like `evaluate_mapping` (injective, every tile in range).
  /// `out.size()` must equal `batch`. A non-empty `edges_out` receives
  /// `batch * edge_count` EdgeMetrics rows (mapping-major), each
  /// bit-identical to `evaluate_mapping(..., detailed=true)`.
  ///
  /// `noise == false` is the loss-only pass, for callers whose fitness
  /// reads no crosstalk (`Objective::needs_noise`): `worst_loss_db` and
  /// each row's endpoints, `loss_db` and `signal_gain` are still
  /// bit-identical to `evaluate_mapping`, while the sieve, the probe and
  /// `pair_noise` never run, and `worst_snr_db`, `noise_gain` and
  /// `snr_db` hold quiet NaN. O(|E|) per mapping instead of O(|E|^2).
  void evaluate(std::span<const TileId> assignments, std::size_t batch,
                std::span<BatchPoint> out,
                std::span<EdgeMetrics> edges_out = {}, bool noise = true);

  /// Trusted entry: skips the per-assignment injectivity/range scan.
  /// Only for assignments whose validity is already guaranteed by a
  /// checked invariant (e.g. they were lifted out of `Mapping`, whose
  /// constructor enforces Eq. 5/6) — this is the validation hoist for
  /// bulk scoring, not a way to relax the public contract.
  void evaluate_trusted(std::span<const TileId> assignments,
                        std::size_t batch, std::span<BatchPoint> out,
                        std::span<EdgeMetrics> edges_out = {},
                        bool noise = true);

 private:
  void run(std::span<const TileId> assignments, std::size_t batch,
           std::span<BatchPoint> out, std::span<EdgeMetrics> edges_out,
           bool validate, bool noise);
  void validate_assignment(std::span<const TileId> assignment);

  std::shared_ptr<const BatchEvalPlan> plan_;

  // --- per-batch scratch (reused across calls) -------------------------------
  std::vector<std::uint32_t> path_of_edge_;  ///< per edge
  std::vector<std::uint64_t> edge_mask_;     ///< per edge, mask_words each
  std::vector<std::uint64_t> sieve_;         ///< per edge, intersection words
  std::vector<std::uint8_t> tile_used_;      ///< validation scratch
  VictimProbe probe_;
};

}  // namespace phonoc
