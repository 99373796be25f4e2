#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "model/evaluation.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace phonoc {

namespace {

struct Transmission {
  EdgeId edge;
  double arrival_ns;
  double start_ns = 0.0;  ///< circuit established
  double end_ns = 0.0;    ///< circuit released
};

/// Two in-flight transmissions are compatible when no router they share
/// carries conflicting connections. Shared links imply a shared output
/// (and input) port at the link's endpoints, so link exclusivity is
/// subsumed by the router port-conflict rule.
bool compatible(const NetworkModel& net, const PathView& a,
                const PathView& b) {
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    const int j = b.hop_index_at(a.hops[i].tile);
    if (j < 0) continue;
    if (net.router().conflicts(a.conn[i],
                               b.conn[static_cast<std::size_t>(j)]))
      return false;
  }
  return true;
}

}  // namespace

SimulationResult simulate(const NetworkModel& net, const CommGraph& cg,
                          const Mapping& mapping,
                          const SimulationOptions& options) {
  require(mapping.task_count() == cg.task_count(),
          "simulate: mapping does not cover the CG");
  require(options.duration_ns > 0.0 && options.arrivals_per_us > 0.0 &&
              options.payload_bits > 0.0 && options.line_rate_gbps > 0.0,
          "simulate: options must be positive");
  require(options.warmup_ns >= 0.0 && options.warmup_ns < options.duration_ns,
          "simulate: warmup must fall inside the horizon");

  SimulationResult result;
  const auto edges = cg.edges();
  if (edges.empty()) {
    result.worst_snr_db = net.options().snr_ceiling_db;
    return result;
  }

  // Resolve paths once (also validates the mapping against the network).
  std::vector<PathView> paths;
  paths.reserve(edges.size());
  for (const auto& e : edges)
    paths.push_back(net.path(mapping.tile_of(e.src), mapping.tile_of(e.dst)));

  // --- generate Poisson arrivals per edge ---------------------------------
  double mean_bw = 0.0;
  for (const auto& e : edges) mean_bw += e.bandwidth_mbps;
  mean_bw /= static_cast<double>(edges.size());
  if (mean_bw <= 0.0) mean_bw = 1.0;

  Rng rng(options.seed);
  std::vector<Transmission> transmissions;
  for (EdgeId e = 0; e < edges.size(); ++e) {
    // Rate in 1/ns, proportional to the edge's bandwidth demand.
    const double weight =
        edges[e].bandwidth_mbps > 0.0 ? edges[e].bandwidth_mbps / mean_bw
                                      : 1.0;
    const double rate = options.arrivals_per_us * weight / 1000.0;
    double t = 0.0;
    Rng edge_rng = rng.fork();
    while (true) {
      t += -std::log(1.0 - edge_rng.next_double()) / rate;
      if (t >= options.duration_ns) break;
      transmissions.push_back(Transmission{e, t});
    }
  }
  std::sort(transmissions.begin(), transmissions.end(),
            [](const Transmission& a, const Transmission& b) {
              return a.arrival_ns < b.arrival_ns;
            });
  result.offered = transmissions.size();

  const double serialization_ns =
      options.payload_bits / options.line_rate_gbps;  // bits / (bit/ns)
  const double hold_ns = options.setup_ns + serialization_ns;

  // --- greedy arrival-order circuit scheduling -----------------------------
  // `scheduled` holds committed transmissions sorted by arrival; for each
  // new one we push its start past every incompatible overlapping circuit.
  std::vector<std::size_t> active;  // indices into transmissions
  for (std::size_t i = 0; i < transmissions.size(); ++i) {
    auto& tx = transmissions[i];
    double start = tx.arrival_ns;
    bool moved = true;
    while (moved) {
      moved = false;
      for (const auto j : active) {
        const auto& other = transmissions[j];
        if (other.end_ns <= start || other.start_ns >= start + hold_ns)
          continue;  // no temporal overlap
        if (compatible(net, paths[tx.edge], paths[other.edge])) continue;
        start = other.end_ns;  // wait for the conflicting circuit
        moved = true;
      }
    }
    tx.start_ns = start;
    tx.end_ns = start + hold_ns;
    // Keep the active list tight: drop circuits that ended before any
    // future arrival can overlap them.
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](std::size_t j) {
                                  return transmissions[j].end_ns <=
                                         tx.arrival_ns;
                                }),
                 active.end());
    active.push_back(i);
  }

  // --- measurements ----------------------------------------------------------
  result.worst_snr_db = net.options().snr_ceiling_db;
  double total_busy_ns = 0.0;
  std::size_t used_links = 0;
  std::vector<double> busy_per_edge(edges.size(), 0.0);

  // Sort by start for overlap scans.
  std::vector<std::size_t> by_start(transmissions.size());
  for (std::size_t i = 0; i < by_start.size(); ++i) by_start[i] = i;
  std::sort(by_start.begin(), by_start.end(), [&](std::size_t a,
                                                  std::size_t b) {
    return transmissions[a].start_ns < transmissions[b].start_ns;
  });

  for (std::size_t idx = 0; idx < by_start.size(); ++idx) {
    const auto& tx = transmissions[by_start[idx]];
    const bool measured =
        tx.arrival_ns >= options.warmup_ns && tx.end_ns <= options.duration_ns;
    busy_per_edge[tx.edge] +=
        std::min(tx.end_ns, options.duration_ns) - tx.start_ns;
    if (!measured) continue;
    ++result.delivered;
    result.latency_ns.add(tx.end_ns - tx.arrival_ns);
    result.wait_ns.add(tx.start_ns - tx.arrival_ns);

    // Noise from temporally overlapping circuits (all compatible by
    // construction of the schedule). SNR is an instantaneous quantity:
    // two serialized back-to-back circuits of the same attacker edge
    // are never lit at the same instant, so each distinct attacker edge
    // contributes at most once — a tight upper bound on the worst
    // instantaneous co-activation during the victim's flight, and by
    // the subset argument still below the static all-edges bound.
    double noise = 0.0;
    std::vector<bool> edge_counted(edges.size(), false);
    const auto add_attacker = [&](const Transmission& other) {
      if (edge_counted[other.edge]) return;
      edge_counted[other.edge] = true;
      noise += noise_contribution(net, paths[tx.edge], paths[other.edge]);
    };
    // Scan neighbours in start order around idx; overlap window is hold_ns.
    for (std::size_t k = idx; k-- > 0;) {
      const auto& other = transmissions[by_start[k]];
      if (other.end_ns <= tx.start_ns) {
        // Starts are ordered and hold times uniform, so ends are ordered
        // too: once one neighbour ends before us, earlier ones do as well.
        break;
      }
      add_attacker(other);
    }
    for (std::size_t k = idx + 1; k < by_start.size(); ++k) {
      const auto& other = transmissions[by_start[k]];
      if (other.start_ns >= tx.end_ns) break;
      add_attacker(other);
    }
    const double snr = std::min(snr_db(paths[tx.edge].total_gain, noise),
                                net.options().snr_ceiling_db);
    result.snr_db.add(snr);
    result.worst_snr_db = std::min(result.worst_snr_db, snr);
  }

  // Link utilization: each transmission holds every link of its path for
  // its full flight; average the busy fraction over links that carried
  // at least one circuit.
  for (EdgeId e = 0; e < edges.size(); ++e) {
    if (busy_per_edge[e] <= 0.0) continue;
    const auto links_on_path = paths[e].hops.size() - 1;
    total_busy_ns += busy_per_edge[e] * static_cast<double>(links_on_path);
    used_links += links_on_path;
  }
  result.mean_link_utilization =
      used_links > 0
          ? total_busy_ns /
                (static_cast<double>(used_links) * options.duration_ns)
          : 0.0;
  result.delivered_gbps = static_cast<double>(result.delivered) *
                          options.payload_bits / options.duration_ns;
  return result;
}

}  // namespace phonoc
