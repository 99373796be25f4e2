#include "model/evaluation.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/units.hpp"

namespace phonoc {

namespace {

void check_assignment(const NetworkModel& net, const CommGraph& cg,
                      std::span<const TileId> assignment) {
  require(assignment.size() == cg.task_count(),
          "evaluate_mapping: assignment size != task count");
  std::vector<bool> used(net.tile_count(), false);
  for (const auto tile : assignment) {
    require(tile < net.tile_count(),
            "evaluate_mapping: assignment targets a tile out of range");
    require(!used[tile],
            "evaluate_mapping: two tasks mapped to the same tile");
    used[tile] = true;
  }
}

}  // namespace

double noise_contribution(const NetworkModel& net, const PathView& victim,
                          const PathView& attacker) {
  double noise = 0.0;
  const auto hops = attacker.hops.size();
  for (std::size_t ai = 0; ai < hops; ++ai) {
    const int vi = victim.hop_index_at(attacker.hops[ai].tile);
    if (vi < 0) continue;
    const double k = net.pair_noise_gain(
        victim.conn[static_cast<std::size_t>(vi)], attacker.conn[ai]);
    if (k <= 0.0) continue;
    noise += attacker.arrive_gain[ai] * k *
             victim.exit_suffix[static_cast<std::size_t>(vi)];
  }
  return noise;
}

EvaluationResult evaluate_mapping(const NetworkModel& net, const CommGraph& cg,
                                  std::span<const TileId> assignment,
                                  bool detailed) {
  check_assignment(net, cg, assignment);

  const auto& edges = cg.graph().edges();
  EvaluationResult result;
  result.worst_snr_db = net.options().snr_ceiling_db;
  if (edges.empty()) return result;

  // Resolve each communication to its precomputed path once.
  std::vector<PathView> paths;
  paths.reserve(edges.size());
  for (const auto& e : edges)
    paths.push_back(net.path(assignment[e.src], assignment[e.dst]));

  if (detailed) result.edges.reserve(edges.size());
  for (std::size_t v = 0; v < edges.size(); ++v) {
    const auto& victim = paths[v];
    double noise = 0.0;
    for (std::size_t a = 0; a < edges.size(); ++a) {
      if (a == v) continue;
      noise += noise_contribution(net, victim, paths[a]);
    }
    const double snr =
        std::min(snr_db(victim.total_gain, noise),
                 net.options().snr_ceiling_db);
    result.worst_loss_db = std::min(result.worst_loss_db,
                                    victim.total_loss_db);
    result.worst_snr_db = std::min(result.worst_snr_db, snr);
    if (detailed) {
      result.edges.push_back(EdgeMetrics{
          static_cast<EdgeId>(v), assignment[edges[v].src],
          assignment[edges[v].dst], victim.total_loss_db, victim.total_gain,
          noise, snr});
    }
  }
  return result;
}

}  // namespace phonoc
