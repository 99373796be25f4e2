#pragma once
/// \file incremental.hpp
/// \brief Incremental (delta) mapping evaluation for two-tile-swap moves.
///
/// The SA / tabu / R-PBLA neighborhood move is a two-tile swap, yet a
/// whole-mapping evaluation re-derives every CG edge on every call —
/// O(|E|^2) pair evaluations per optimizer step. This kernel keeps the
/// full per-edge state of the current mapping alive (path ids, the
/// |E|x|E| pairwise-contribution matrix, the per-victim
/// crosstalk-partner adjacency, and per-edge metrics) and, on a swap,
/// re-evaluates only the edges touching the swapped tiles plus the
/// partner entries they invalidate, each pair through the batch
/// kernel's `pair_noise` (batch_eval.hpp) over per-edge hop rows kept
/// in step with the path ids.
///
/// Bit-identity contract: every quantity this kernel exposes is
/// bit-identical to a fresh `evaluate_mapping` of the same assignment,
/// with zero tolerance: a cached pair value equals a recomputed one (the
/// pair routine is a pure function of the two paths), re-summing a
/// victim's nonzero partners in ascending edge order reproduces the
/// full ascending sum (adding +0.0 is the identity), and the worst-case
/// folds are std::min selections replayed in ascending edge order.
///
/// Transactional protocol: `propose_swap` applies a move and updates
/// the state in place while recording an undo log; `commit` keeps it,
/// `revert` restores the pre-move state exactly (bitwise). At most one
/// proposal may be outstanding. `reset` is the full-rebuild fallback
/// for arbitrary re-assignments (restarts, reheats, GA offspring).

#include <cstdint>
#include <span>
#include <vector>

#include "graph/comm_graph.hpp"
#include "model/batch_eval.hpp"
#include "model/evaluation.hpp"
#include "model/network_model.hpp"

namespace phonoc {

class IncrementalEvaluation {
 public:
  /// Builds the CG's plan (edge endpoints, task -> incident-edge
  /// adjacency). The network and the CG must outlive the kernel.
  IncrementalEvaluation(const NetworkModel& net, const CommGraph& cg);

  /// Full rebuild from an arbitrary assignment (validated like
  /// `evaluate_mapping`: injective, every tile in range). O(|E|^2).
  void reset(std::span<const TileId> assignment);

  /// True once `reset` has established a base state.
  [[nodiscard]] bool has_state() const noexcept { return has_state_; }
  /// True while a proposal awaits commit/revert.
  [[nodiscard]] bool pending() const noexcept { return pending_; }

  /// Apply the two-tile swap (a, b) and update all affected state.
  /// O(touched edges x |E|) pair evaluations instead of O(|E|^2). Requires a base state and no outstanding proposal.
  void propose_swap(TileId a, TileId b);
  /// Keep the proposed move as the new base state.
  void commit();
  /// Restore the exact pre-proposal state (bitwise).
  void revert();

  /// Current (possibly proposed) state as a view; `edges` is always
  /// populated — the kernel maintains per-edge detail continuously.
  [[nodiscard]] EvaluationView view() const noexcept;
  /// Materialize the current state; bit-identical to `evaluate_mapping`
  /// of `assignment()` with the same `detailed` flag.
  [[nodiscard]] EvaluationResult result(bool detailed) const;

  [[nodiscard]] std::span<const TileId> assignment() const noexcept {
    return assignment_;
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return plan_.edge_count();
  }

  /// Number of full rebuilds / incremental proposals served (telemetry
  /// for benches; not part of the evaluation-count contract).
  [[nodiscard]] std::uint64_t rebuild_count() const noexcept {
    return rebuilds_;
  }
  [[nodiscard]] std::uint64_t proposal_count() const noexcept {
    return proposals_;
  }

 private:
  /// Ascending-order selection fold mirroring evaluate_mapping's
  /// std::min chain: `value` is the running minimum, `arg` the edge
  /// that set it (kNoArg when the seed value survived).
  struct MinFold {
    double value = 0.0;
    std::uint32_t arg = kNoArg;
  };
  static constexpr std::uint32_t kNoArg = ~std::uint32_t{0};

  [[nodiscard]] double& cell(std::uint32_t victim,
                             std::uint32_t attacker) noexcept {
    return contrib_[static_cast<std::size_t>(victim) * plan_.edge_count() +
                    attacker];
  }
  /// Noise edge `attacker` adds onto edge `victim` under their current
  /// paths (the shared pair routine; 0.0 when they share no tile).
  [[nodiscard]] double pair(std::uint32_t victim,
                            std::uint32_t attacker) const;
  /// Give edge `e` path `path`, keeping its hop row in step.
  void set_path(std::uint32_t e, std::uint32_t path);
  void mark_changed(std::uint32_t victim);
  void resum_victim(std::uint32_t victim);
  [[nodiscard]] MinFold fold_loss() const;
  [[nodiscard]] MinFold fold_snr() const;
  void apply_tile_swap(TileId a, TileId b);

  BatchEvalPlan plan_;
  const PathStore& store_;
  HopRows rows_;  ///< per edge, the hop row of `paths_[e]`

  bool has_state_ = false;
  bool pending_ = false;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t proposals_ = 0;

  // --- committed/proposed state ---------------------------------------------
  std::vector<TileId> assignment_;       ///< task -> tile
  std::vector<int> tile_to_task_;        ///< tile -> task or -1
  std::vector<std::uint32_t> paths_;     ///< path id per edge
  std::vector<double> contrib_;          ///< |E|x|E| victim-major matrix
  /// Crosstalk-partner adjacency: per victim, the attackers with a
  /// nonzero contribution, ascending (the resum order).
  std::vector<std::vector<std::uint32_t>> partners_;
  std::vector<EdgeMetrics> metrics_;     ///< per edge, always maintained
  MinFold worst_loss_;
  MinFold worst_snr_;

  // --- undo log (one outstanding proposal) ----------------------------------
  struct Undo {
    TileId tile_a = 0;
    TileId tile_b = 0;
    bool swapped = false;  ///< the proposal moved at least one task
    std::vector<std::pair<std::uint32_t, std::uint32_t>> paths;
    std::vector<std::pair<std::uint32_t, EdgeMetrics>> metrics;
    /// (victim, attacker, previous contribution)
    std::vector<std::tuple<std::uint32_t, std::uint32_t, double>> cells;
    std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> partners;
    MinFold worst_loss;
    MinFold worst_snr;
  };
  Undo undo_;

  // --- scratch (reused across proposals) ------------------------------------
  std::vector<std::uint32_t> touched_;       ///< edges with a changed path
  std::vector<std::uint32_t> changed_;       ///< victims needing a resum
  std::vector<std::uint8_t> touched_mark_;   ///< per-edge flags
  std::vector<std::uint8_t> changed_mark_;
  std::vector<std::uint8_t> partners_saved_;
};

}  // namespace phonoc
