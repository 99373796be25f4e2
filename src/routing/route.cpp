#include "routing/route.hpp"

#include "util/error.hpp"

namespace phonoc {

void validate_route(const Topology& topo, const Route& route, TileId src,
                    TileId dst) {
  require_model(!route.hops.empty(), "route: empty hop list");
  require_model(route.links.size() + 1 == route.hops.size(),
                "route: link/hop count mismatch");
  require_model(route.hops.front().tile == src,
                "route: does not start at the source tile");
  require_model(route.hops.front().in_port == kPortLocal,
                "route: source hop must enter at the Local port");
  require_model(route.hops.back().tile == dst,
                "route: does not end at the destination tile");
  require_model(route.hops.back().out_port == kPortLocal,
                "route: destination hop must exit at the Local port");
  for (std::size_t i = 0; i + 1 < route.hops.size(); ++i) {
    const auto& from = route.hops[i];
    const auto& to = route.hops[i + 1];
    const auto& link = topo.link(route.links[i]);
    require_model(link.src_tile == from.tile && link.src_port == from.out_port,
                  "route: link does not leave the previous hop's out port");
    require_model(link.dst_tile == to.tile && link.dst_port == to.in_port,
                  "route: link does not enter the next hop's in port");
  }
}

void extend_route(const Topology& topo, Route& route, PortId direction) {
  require_model(!route.hops.empty(), "extend_route: route not started");
  auto& last = route.hops.back();
  const auto link_id = topo.link_from(last.tile, direction);
  require_model(link_id != kInvalidLink,
                "extend_route: no link through port " +
                    standard_port_name(direction) + " from tile " +
                    std::to_string(last.tile));
  const auto& link = topo.link(link_id);
  last.out_port = direction;
  route.links.push_back(link_id);
  route.hops.push_back(Hop{link.dst_tile, link.dst_port, kPortLocal});
}

Route start_route(TileId src) {
  Route route;
  route.hops.push_back(Hop{src, kPortLocal, kPortLocal});
  return route;
}

}  // namespace phonoc
