#pragma once
/// \file evaluation.hpp
/// \brief Mapping evaluation: worst-case insertion loss and worst-case
/// SNR of a Communication Graph mapped onto a network (paper Eq. 3/4).
///
/// `evaluate_mapping` and `noise_contribution` are the plain reference
/// loops over `NetworkModel::path` views: the oracle every kernel is
/// tested against bitwise. Production scoring runs the evaluation
/// kernel (batch_eval.hpp), which computes the same sums over the
/// network's flat path store.

#include <span>
#include <vector>

#include "graph/comm_graph.hpp"
#include "model/network_model.hpp"

namespace phonoc {

/// Per-communication metrics of one evaluated mapping.
struct EdgeMetrics {
  EdgeId edge = 0;
  TileId src_tile = 0;
  TileId dst_tile = 0;
  double loss_db = 0.0;       ///< insertion loss (<= 0)
  double signal_gain = 1.0;   ///< linear end-to-end gain
  double noise_gain = 0.0;    ///< linear noise power per unit injected power
  double snr_db = 0.0;        ///< clamped to the model's ceiling
};

struct EvaluationResult {
  /// Worst-case insertion loss IL_wc^dB: most negative edge loss (Eq. 3).
  double worst_loss_db = 0.0;
  /// Worst-case SNR: minimum edge SNR in dB (Eq. 4).
  double worst_snr_db = 0.0;
  /// Per-edge detail; filled only when requested.
  std::vector<EdgeMetrics> edges;
};

/// Non-owning view of an evaluated mapping. Objectives fold over this so
/// every producer — the kernel and the reference loop — feeds the
/// same fitness code without copying the edge vector.
struct EvaluationView {
  double worst_loss_db = 0.0;
  double worst_snr_db = 0.0;
  /// Per-edge detail; empty when the producer ran without detail.
  std::span<const EdgeMetrics> edges;
};

/// Evaluate a mapping (the reference loop). `assignment[task] = tile`;
/// the assignment must be injective with every tile in range (checked).
/// `detailed` additionally returns per-edge metrics. A CG without edges
/// yields worst_loss = 0 and worst_snr = ceiling.
[[nodiscard]] EvaluationResult evaluate_mapping(
    const NetworkModel& net, const CommGraph& cg,
    std::span<const TileId> assignment, bool detailed = false);

/// Noise power (linear, per unit attacker injected power) that `attacker`
/// adds onto `victim`'s detector: the reference pair loop, also used by
/// the detailed analyses. Paths must come from the same NetworkModel.
[[nodiscard]] double noise_contribution(const NetworkModel& net,
                                        const PathView& victim,
                                        const PathView& attacker);

}  // namespace phonoc
