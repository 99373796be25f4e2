#pragma once
/// \file route.hpp
/// \brief Network route representation and the routing-algorithm
/// interface (paper Fig. 1: routing algorithm is an input/extension
/// point of the architecture description).

#include <memory>
#include <string>
#include <vector>

#include "topology/topology.hpp"

namespace phonoc {

/// One router traversal: light enters `tile`'s router at `in_port` and
/// leaves at `out_port`. The first hop of a route enters at the Local
/// port (injection), the last exits at the Local port (ejection); a
/// single-hop route does both in the same router.
struct Hop {
  TileId tile;
  PortId in_port;
  PortId out_port;
};

/// A source-to-destination path: hops through routers and the links
/// connecting consecutive hops (links.size() == hops.size() - 1).
struct Route {
  std::vector<Hop> hops;
  std::vector<LinkId> links;

  [[nodiscard]] std::size_t hop_count() const noexcept { return hops.size(); }
};

/// Verify structural consistency of a route on a topology: starts at
/// `src` with Local in-port, ends at `dst` with Local out-port, every
/// intermediate (out_port, link, in_port) triple matches the topology.
/// Throws ModelError with a description when inconsistent.
void validate_route(const Topology& topo, const Route& route, TileId src,
                    TileId dst);

/// Deterministic routing algorithm: one route per (src, dst) pair.
class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Compute the route src -> dst. Requires src != dst; implementations
  /// throw ModelError when the pair is unreachable.
  [[nodiscard]] virtual Route compute_route(const Topology& topo, TileId src,
                                            TileId dst) const = 0;
};

/// Helper for grid routing algorithms: extend `route` by moving out of
/// its last tile through `direction` (following the topology link) and
/// entering the neighbouring tile. The new hop's out_port is left as
/// Local; callers overwrite it unless the hop is final.
void extend_route(const Topology& topo, Route& route, PortId direction);

/// Start a route at `src` (Local in-port, out-port filled later).
[[nodiscard]] Route start_route(TileId src);

}  // namespace phonoc
