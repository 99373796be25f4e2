#include "model/crosstalk_analysis.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/units.hpp"

namespace phonoc {

std::vector<VictimReport> analyze_crosstalk(
    const NetworkModel& net, const CommGraph& cg,
    std::span<const TileId> assignment) {
  require(assignment.size() == cg.task_count(),
          "analyze_crosstalk: assignment size != task count");
  const auto& edges = cg.graph().edges();

  std::vector<PathView> paths;
  paths.reserve(edges.size());
  for (const auto& e : edges)
    paths.push_back(net.path(assignment[e.src], assignment[e.dst]));

  std::vector<VictimReport> reports;
  reports.reserve(edges.size());
  for (std::size_t v = 0; v < edges.size(); ++v) {
    const auto& victim = paths[v];
    VictimReport report;
    report.victim_edge = static_cast<EdgeId>(v);
    report.signal_gain = victim.total_gain;

    for (std::size_t a = 0; a < edges.size(); ++a) {
      if (a == v) continue;
      const auto& attacker = paths[a];
      for (std::size_t ai = 0; ai < attacker.hops.size(); ++ai) {
        const int vi = victim.hop_index_at(attacker.hops[ai].tile);
        if (vi < 0) continue;
        const double k = net.pair_noise_gain(
            victim.conn[static_cast<std::size_t>(vi)], attacker.conn[ai]);
        if (k <= 0.0) continue;
        NoiseEvent event;
        event.attacker_edge = static_cast<EdgeId>(a);
        event.router_tile = attacker.hops[ai].tile;
        event.attacker_power = attacker.arrive_gain[ai];
        event.coefficient = k;
        event.downstream_gain =
            victim.exit_suffix[static_cast<std::size_t>(vi)];
        event.noise_at_detector =
            event.attacker_power * k * event.downstream_gain;
        report.total_noise += event.noise_at_detector;
        report.events.push_back(event);
      }
    }
    std::sort(report.events.begin(), report.events.end(),
              [](const NoiseEvent& x, const NoiseEvent& y) {
                return x.noise_at_detector > y.noise_at_detector;
              });
    report.snr_db = std::min(snr_db(report.signal_gain, report.total_noise),
                             net.options().snr_ceiling_db);
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace phonoc
