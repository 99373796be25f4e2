#pragma once
/// \file table_routing.hpp
/// \brief Explicit per-pair routing table (arbitrary user routes), plus
/// a BFS shortest-path table generator for irregular topologies.

#include <map>
#include <utility>
#include <vector>

#include "routing/route.hpp"

namespace phonoc {

/// Routes are stored as direction sequences (output ports taken at each
/// hop, excluding the final Local ejection).
class TableRouting final : public RoutingAlgorithm {
 public:
  [[nodiscard]] std::string name() const override { return "table"; }

  /// Define (or replace) the route for a pair.
  void set_route(TileId src, TileId dst, std::vector<PortId> directions);

  [[nodiscard]] Route compute_route(const Topology& topo, TileId src,
                                    TileId dst) const override;

  /// Build a complete table of BFS shortest paths (hop-count metric)
  /// over the topology's links. Deterministic: neighbour expansion
  /// follows link insertion order.
  [[nodiscard]] static TableRouting shortest_paths(const Topology& topo);

 private:
  std::map<std::pair<TileId, TileId>, std::vector<PortId>> table_;
};

}  // namespace phonoc
