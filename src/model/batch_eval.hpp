#pragma once
/// \file batch_eval.hpp
/// \brief The evaluation kernel over the NetworkModel's path store:
/// batched whole-mapping scoring, its per-edge hop rows and its one
/// pair routine.
///
/// A `BatchEvalPlan` adds only the CG's shape to the store (edge
/// endpoints; O(|E|), no path data). A `BatchEvaluator` resolves each
/// mapping's edges to path ids and fills their hop rows, then per
/// victim edge runs a vectorized tile-mask sieve (pairs sharing no tile
/// contribute exactly +0.0 and are skipped), compacts the survivors
/// without a branch and calls `pair_noise` on each with the tiles the
/// pair shares.
///
/// Bit-identity contract: every metric equals `evaluate_mapping` of the
/// same assignment bitwise — the same per-term operands and
/// association, three or more terms of a pair in ascending attacker-hop
/// order (one or two sum exactly in any order), per-attacker subtotals
/// folded in ascending edge order (skipped terms are exact +0.0, the
/// identity on a non-negative sum), and the same std::min folds
/// (src/model/README.md has the argument).
/// A loss-only pass (`noise == false`) scores the loss metrics the same
/// way and skips the crosstalk walk, leaving every noise field NaN.

#include <bit>
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

/// Per-edge tile -> hop rows, each BatchEvaluator's own per-thread
/// scratch (the shared NetworkModel stays immutable): `row(e)[tile]` is
/// the hop index at `tile` of the path last set for edge `e`, or -1.
/// Setting or clearing a path costs O(hops), not O(tiles).
class HopRows {
 public:
  HopRows(std::size_t edges, std::size_t tiles)
      : tiles_(tiles), rows_(edges * tiles, std::int16_t{-1}) {}

  void set(const PathStore& store, std::size_t e, std::size_t path) noexcept {
    write(store, e, path, false);
  }
  /// Undo `set(store, e, path)`.
  void clear(const PathStore& store, std::size_t e,
             std::size_t path) noexcept {
    write(store, e, path, true);
  }
  [[nodiscard]] const std::int16_t* row(std::size_t e) const noexcept {
    return rows_.data() + e * tiles_;
  }

 private:
  void write(const PathStore& store, std::size_t e, std::size_t path,
             bool clear) noexcept {
    std::int16_t* row = rows_.data() + e * tiles_;
    const std::size_t begin = store.hop_begin[path];
    for (std::size_t h = begin; h < store.hop_begin[path + 1]; ++h)
      row[store.hops[h].tile] =
          clear ? std::int16_t{-1} : static_cast<std::int16_t>(h - begin);
  }

  std::size_t tiles_;
  std::vector<std::int16_t> rows_;
};

/// One side of a scored pair: a path id and its tile -> hop row.
struct PairPath {
  std::size_t path;
  const std::int16_t* row;
};

/// The one pair routine: noise (linear, per unit attacker injected
/// power) that `attacker` adds onto `victim`, one term `arrive · k ·
/// exit` per tile both paths visit. `shared` is the nonzero tile-mask
/// intersection of the two paths (with several mask words, any nonzero
/// value). With one mask word and one or two shared tiles, it reads both
/// hop indices at those tiles; otherwise it walks the attacker's hops in
/// order against the victim's row. Either way the sum is bitwise the
/// oracle's `noise_contribution` (src/model/README.md has the argument).
[[nodiscard]] inline double pair_noise(const PathStore& store,
                                       PairPath victim, PairPath attacker,
                                       std::uint64_t shared) noexcept {
  const std::size_t vbase = store.hop_begin[victim.path];
  const std::size_t abase = store.hop_begin[attacker.path];
  const auto term = [&store](std::size_t vh, std::size_t ah) {
    return store.arrive_gain[ah] *
           store.pair_gain[store.conn[vh] * store.conns + store.conn[ah]] *
           store.exit_suffix[vh];
  };
  const auto at = [](PairPath side, std::size_t base, unsigned tile) {
    return base + static_cast<std::size_t>(side.row[tile]);
  };
  const std::uint64_t rest = shared & (shared - 1);
  if (store.mask_words == 1 && (rest & (rest - 1)) == 0) {
    const unsigned first = static_cast<unsigned>(std::countr_zero(shared));
    const unsigned second = static_cast<unsigned>(
        std::countr_zero(rest != 0 ? rest : shared));
    const double one = term(at(victim, vbase, first),
                            at(attacker, abase, first));
    const double two = term(at(victim, vbase, second),
                            at(attacker, abase, second));
    // A select, not a branch: the mask keeps `two` or makes it +0.0.
    const std::uint64_t keep = -static_cast<std::uint64_t>(rest != 0);
    return one + std::bit_cast<double>(std::bit_cast<std::uint64_t>(two) &
                                       keep);
  }
  double contribution = 0.0;
  for (std::size_t h = abase; h < store.hop_begin[attacker.path + 1]; ++h) {
    const int vi = victim.row[store.hops[h].tile];
    if (vi < 0) continue;
    contribution += term(vbase + static_cast<std::size_t>(vi), h);
  }
  return contribution;
}

/// The CG's shape over one NetworkModel's path store: edge endpoints,
/// O(|E|) to build. It copies no path data. Immutable, so any number of
/// BatchEvaluators (one per thread) can share it. The network and CG
/// must outlive the plan.
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

 private:
  const NetworkModel* net_;
  std::size_t tasks_;
  std::vector<NodeId> edge_src_;
  std::vector<NodeId> edge_dst_;
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
  /// bit-identical to `evaluate_mapping`, while the sieve, the hop rows
  /// and `pair_noise` are never touched, and `worst_snr_db`,
  /// `noise_gain` and `snr_db` hold quiet NaN. O(|E|) per mapping
  /// instead of O(|E|^2).
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
  std::vector<std::uint32_t> survivors_;     ///< attackers with a nonzero word
  std::vector<std::uint8_t> tile_used_;      ///< validation scratch
  HopRows rows_;  ///< the current row's paths; all -1 between calls
};

}  // namespace phonoc
