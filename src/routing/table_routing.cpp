#include "routing/table_routing.hpp"

#include <algorithm>
#include <queue>

#include "util/error.hpp"

namespace phonoc {

void TableRouting::set_route(TileId src, TileId dst,
                             std::vector<PortId> directions) {
  require(src != dst, "TableRouting::set_route: src == dst");
  require(!directions.empty(), "TableRouting::set_route: empty route");
  table_[{src, dst}] = std::move(directions);
}

Route TableRouting::compute_route(const Topology& topo, TileId src,
                                  TileId dst) const {
  require(src != dst, "TableRouting: src == dst");
  const auto it = table_.find({src, dst});
  require_model(it != table_.end(),
                "TableRouting: no route for pair " + std::to_string(src) +
                    " -> " + std::to_string(dst));
  auto route = start_route(src);
  for (const auto direction : it->second)
    extend_route(topo, route, direction);
  route.hops.back().out_port = kPortLocal;
  validate_route(topo, route, src, dst);
  return route;
}

TableRouting TableRouting::shortest_paths(const Topology& topo) {
  TableRouting table;
  const auto tiles = topo.tile_count();
  for (TileId src = 0; src < tiles; ++src) {
    // BFS over links from src, remembering the (previous tile, direction)
    // that first reached each tile.
    std::vector<TileId> prev(tiles, kInvalidTile);
    std::vector<PortId> dir_taken(tiles, 0);
    std::vector<bool> seen(tiles, false);
    std::queue<TileId> frontier;
    frontier.push(src);
    seen[src] = true;
    while (!frontier.empty()) {
      const auto t = frontier.front();
      frontier.pop();
      for (PortId port = 0; port < topo.router_ports(); ++port) {
        const auto link_id = topo.link_from(t, port);
        if (link_id == kInvalidLink) continue;
        const auto& link = topo.link(link_id);
        if (seen[link.dst_tile]) continue;
        seen[link.dst_tile] = true;
        prev[link.dst_tile] = t;
        dir_taken[link.dst_tile] = port;
        frontier.push(link.dst_tile);
      }
    }
    for (TileId dst = 0; dst < tiles; ++dst) {
      if (dst == src || !seen[dst]) continue;
      std::vector<PortId> directions;
      for (TileId t = dst; t != src; t = prev[t])
        directions.push_back(dir_taken[t]);
      std::reverse(directions.begin(), directions.end());
      table.set_route(src, dst, std::move(directions));
    }
  }
  return table;
}

}  // namespace phonoc
