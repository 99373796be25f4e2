#include "topology/topology.hpp"

#include <algorithm>

namespace phonoc {

Topology::Topology(std::string name, std::size_t router_ports)
    : name_(std::move(name)), router_ports_(router_ports) {
  require(router_ports_ >= 1, "Topology: routers need at least one port");
}

TileId Topology::add_tile(TilePosition position) {
  positions_.push_back(position);
  out_links_.insert(out_links_.end(), router_ports_, kInvalidLink);
  in_links_.insert(in_links_.end(), router_ports_, kInvalidLink);
  rows_ = std::max(rows_, position.row + 1);
  cols_ = std::max(cols_, position.col + 1);
  return static_cast<TileId>(positions_.size() - 1);
}

LinkId Topology::add_link(TileId src_tile, PortId src_port, TileId dst_tile,
                          PortId dst_port, double length_cm) {
  require(src_tile < tile_count() && dst_tile < tile_count(),
          "Topology::add_link: tile out of range");
  require(src_port < router_ports_ && dst_port < router_ports_,
          "Topology::add_link: port out of range");
  require(length_cm > 0.0, "Topology::add_link: length must be positive");
  require(src_tile != dst_tile, "Topology::add_link: self-link");
  auto& out_slot = out_links_[src_tile * router_ports_ + src_port];
  auto& in_slot = in_links_[dst_tile * router_ports_ + dst_port];
  require(out_slot == kInvalidLink,
          "Topology::add_link: output port already linked");
  require(in_slot == kInvalidLink,
          "Topology::add_link: input port already linked");
  links_.push_back(Link{src_tile, src_port, dst_tile, dst_port, length_cm});
  const auto id = static_cast<LinkId>(links_.size() - 1);
  out_slot = id;
  in_slot = id;
  return id;
}

const Link& Topology::link(LinkId id) const {
  require(id < links_.size(), "Topology::link: id out of range");
  return links_[id];
}

TilePosition Topology::position(TileId tile) const {
  require(tile < tile_count(), "Topology::position: tile out of range");
  return positions_[tile];
}

LinkId Topology::link_from(TileId tile, PortId port) const {
  require(tile < tile_count() && port < router_ports_,
          "Topology::link_from: out of range");
  return out_links_[tile * router_ports_ + port];
}

TileId Topology::tile_at(std::uint32_t row, std::uint32_t col) const {
  for (TileId t = 0; t < positions_.size(); ++t)
    if (positions_[t].row == row && positions_[t].col == col) return t;
  return kInvalidTile;
}

void Topology::validate() const {
  require(tile_count() >= 1, "Topology: at least one tile required");
  for (const auto& l : links_) {
    require(l.src_tile < tile_count() && l.dst_tile < tile_count(),
            "Topology: link endpoint out of range");
    require(l.length_cm > 0.0, "Topology: non-positive link length");
  }
}

}  // namespace phonoc
