#include "model/wavelength.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"
#include "util/units.hpp"

namespace phonoc {

std::vector<std::vector<double>> interference_matrix(
    const NetworkModel& net, const CommGraph& cg,
    std::span<const TileId> assignment) {
  require(assignment.size() == cg.task_count(),
          "interference_matrix: assignment size != task count");
  const auto edges = cg.graph().edges();
  std::vector<PathView> paths;
  paths.reserve(edges.size());
  for (const auto& e : edges)
    paths.push_back(net.path(assignment[e.src], assignment[e.dst]));

  std::vector<std::vector<double>> w(
      edges.size(), std::vector<double>(edges.size(), 0.0));
  for (std::size_t v = 0; v < edges.size(); ++v)
    for (std::size_t a = 0; a < edges.size(); ++a)
      if (v != a) w[v][a] = noise_contribution(net, paths[v], paths[a]);
  return w;
}

WdmAssignment assign_wavelengths(const NetworkModel& net, const CommGraph& cg,
                                 std::span<const TileId> assignment,
                                 const WdmOptions& options) {
  require(options.channels >= 1, "assign_wavelengths: need >= 1 channel");
  const auto w = interference_matrix(net, cg, assignment);
  const auto n = w.size();

  WdmAssignment result;
  result.channel.assign(n, 0);
  if (n == 0) return result;

  // Order: total interference (received + caused), heaviest first.
  std::vector<double> total(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) total[i] += w[i][j] + w[j][i];
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (total[a] != total[b]) return total[a] > total[b];
    return a < b;
  });

  std::vector<bool> placed(n, false);
  for (const auto i : order) {
    double best_cost = 0.0;
    std::uint32_t best_channel = 0;
    bool first = true;
    for (std::uint32_t c = 0; c < options.channels; ++c) {
      double cost = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (!placed[j] || result.channel[j] != c) continue;
        cost += w[i][j] + w[j][i];
      }
      if (first || cost < best_cost) {
        first = false;
        best_cost = cost;
        best_channel = c;
      }
    }
    result.channel[i] = best_channel;
    result.residual_weight += best_cost;
    placed[i] = true;
  }
  std::uint32_t used = 0;
  for (const auto c : result.channel)
    used = std::max(used, c + 1);
  result.channels_used = used;
  return result;
}

EvaluationResult evaluate_mapping_wdm(const NetworkModel& net,
                                      const CommGraph& cg,
                                      std::span<const TileId> assignment,
                                      const WdmAssignment& wdm,
                                      const WdmOptions& options,
                                      bool detailed) {
  const auto edges = cg.graph().edges();
  require(wdm.channel.size() == edges.size(),
          "evaluate_mapping_wdm: assignment does not cover the CG edges");
  require(options.inter_channel_isolation_db <= 0.0,
          "evaluate_mapping_wdm: isolation must be <= 0 dB");
  const double isolation = db_to_linear(options.inter_channel_isolation_db);
  const auto w = interference_matrix(net, cg, assignment);

  EvaluationResult result;
  result.worst_snr_db = net.options().snr_ceiling_db;
  if (edges.empty()) return result;
  if (detailed) result.edges.reserve(edges.size());

  for (std::size_t v = 0; v < edges.size(); ++v) {
    const auto path =
        net.path(assignment[edges[v].src], assignment[edges[v].dst]);
    double noise = 0.0;
    for (std::size_t a = 0; a < edges.size(); ++a) {
      if (a == v) continue;
      const double factor =
          wdm.channel[a] == wdm.channel[v] ? 1.0 : isolation;
      noise += w[v][a] * factor;
    }
    const double snr = std::min(snr_db(path.total_gain, noise),
                                net.options().snr_ceiling_db);
    result.worst_loss_db =
        std::min(result.worst_loss_db, path.total_loss_db);
    result.worst_snr_db = std::min(result.worst_snr_db, snr);
    if (detailed)
      result.edges.push_back(EdgeMetrics{
          static_cast<EdgeId>(v), assignment[edges[v].src],
          assignment[edges[v].dst], path.total_loss_db, path.total_gain,
          noise, snr});
  }
  return result;
}

}  // namespace phonoc
