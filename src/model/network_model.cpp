#include "model/network_model.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/units.hpp"

namespace phonoc {

namespace {

/// Append a validated route to `store` as its next path: the per-hop
/// rows (connection indices validated against the router, prefix and
/// suffix gains), then the path's totals and tile mask.
void append_path(const Topology& topology, const RouterModel& router,
                 const Route& route, PathStore& store) {
  const auto n = route.hops.size();
  const auto base = store.hops.size();
  store.hops.insert(store.hops.end(), route.hops.begin(), route.hops.end());
  for (const auto& hop : route.hops) {
    const int idx = router.connection_index(hop.in_port, hop.out_port);
    require_model(idx >= 0,
                  "router '" + router.name() + "' does not support the " +
                      standard_port_name(hop.in_port) + "->" +
                      standard_port_name(hop.out_port) +
                      " connection required by the routing algorithm");
    store.conn.push_back(static_cast<std::uint16_t>(idx));
  }
  const std::uint16_t* conn = &store.conn[base];

  // Link gains between consecutive hops.
  double link_length_cm = 0.0;
  std::vector<double> link_gain(route.links.size(), 1.0);
  for (std::size_t i = 0; i < route.links.size(); ++i) {
    const double len = topology.link(route.links[i]).length_cm;
    link_length_cm += len;
    link_gain[i] = router.linear_parameters().propagation_gain(len);
  }

  // Prefix: power arriving at hop i's router input.
  store.arrive_gain.resize(base + n, 1.0);
  double* arrive = &store.arrive_gain[base];
  for (std::size_t i = 1; i < n; ++i)
    arrive[i] = arrive[i - 1] * router.connection_gain(conn[i - 1]) *
                link_gain[i - 1];

  // Suffix: gain from hop i's router output to the detector.
  store.exit_suffix.resize(base + n, 1.0);
  double* exit = &store.exit_suffix[base];
  for (std::size_t i = n - 1; i-- > 0;)
    exit[i] = link_gain[i] * router.connection_gain(conn[i + 1]) * exit[i + 1];

  const double total_gain = arrive[n - 1] * router.connection_gain(conn[n - 1]);
  store.total_gain.push_back(total_gain);
  store.total_loss_db.push_back(linear_to_db(total_gain));
  store.link_length_cm.push_back(link_length_cm);

  const auto mask = store.tile_mask.size();
  store.tile_mask.resize(mask + store.mask_words, 0);
  for (const auto& hop : route.hops) {
    std::uint64_t& word = store.tile_mask[mask + hop.tile / 64];
    const std::uint64_t bit = std::uint64_t{1} << (hop.tile % 64);
    require_model((word & bit) == 0,
                  "route visits a tile twice (unsupported by the "
                  "crosstalk analysis)");
    word |= bit;
  }
}

}  // namespace

NetworkModel::NetworkModel(Topology topology, RouterModelPtr router,
                           std::shared_ptr<const RoutingAlgorithm> routing,
                           NetworkModelOptions options)
    : topology_(std::move(topology)),
      router_(std::move(router)),
      routing_(std::move(routing)),
      options_(options) {
  require(router_ != nullptr, "NetworkModel: null router model");
  require(routing_ != nullptr, "NetworkModel: null routing algorithm");
  topology_.validate();
  require_model(topology_.router_ports() <= router_->port_count(),
                "NetworkModel: topology uses more ports than the router has");
  require(options_.snr_ceiling_db > 0.0,
          "NetworkModel: snr_ceiling_db must be positive");

  const auto tiles = topology_.tile_count();
  require_model(tiles <= kMaxTiles,
                "NetworkModel: tile count exceeds the hop index range");

  // The reference loop skips terms with k <= 0 before multiplying;
  // clamping those entries to exactly 0.0 makes the multiplied-through
  // term an exact +0.0, the same identity on a non-negative sum.
  store_.conns = router_->connection_count();
  store_.pair_gain.resize(store_.conns * store_.conns);
  for (std::size_t v = 0; v < store_.conns; ++v)
    for (std::size_t a = 0; a < store_.conns; ++a) {
      const double k = pair_noise_gain(static_cast<std::uint16_t>(v),
                                       static_cast<std::uint16_t>(a));
      store_.pair_gain[v * store_.conns + a] = k > 0.0 ? k : 0.0;
    }

  store_.mask_words = (tiles + 63) / 64;
  store_.hop_begin.reserve(tiles * tiles + 1);
  store_.hop_begin.push_back(0);
  for (TileId src = 0; src < tiles; ++src) {
    for (TileId dst = 0; dst < tiles; ++dst) {
      if (src == dst) {  // an empty row, never referenced
        store_.total_gain.push_back(1.0);
        store_.total_loss_db.push_back(0.0);
        store_.link_length_cm.push_back(0.0);
        store_.tile_mask.resize(store_.tile_mask.size() + store_.mask_words);
      } else {
        const auto route = routing_->compute_route(topology_, src, dst);
        validate_route(topology_, route, src, dst);
        append_path(topology_, *router_, route, store_);
      }
      store_.hop_begin.push_back(
          static_cast<std::uint32_t>(store_.hops.size()));
    }
  }
  store_.hops.shrink_to_fit();
  store_.conn.shrink_to_fit();
  store_.arrive_gain.shrink_to_fit();
  store_.exit_suffix.shrink_to_fit();
}

PathView NetworkModel::path(TileId src, TileId dst) const {
  const auto tiles = topology_.tile_count();
  require(src < tiles && dst < tiles, "NetworkModel::path: tile out of range");
  require(src != dst, "NetworkModel::path: src == dst");
  const std::size_t p = path_id(src, dst);
  const std::size_t begin = store_.hop_begin[p];
  const std::size_t n = store_.hop_begin[p + 1] - begin;
  return PathView{{&store_.hops[begin], n},
                  {&store_.conn[begin], n},
                  {&store_.arrive_gain[begin], n},
                  {&store_.exit_suffix[begin], n},
                  store_.total_gain[p],
                  store_.total_loss_db[p],
                  store_.link_length_cm[p]};
}

double NetworkModel::worst_case_path_loss_db() const {
  double worst = 0.0;
  const auto tiles = topology_.tile_count();
  for (TileId src = 0; src < tiles; ++src)
    for (TileId dst = 0; dst < tiles; ++dst)
      if (src != dst)
        worst = std::min(worst, store_.total_loss_db[path_id(src, dst)]);
  return worst;
}

}  // namespace phonoc
