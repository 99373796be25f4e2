#pragma once
/// \file topology.hpp
/// \brief Topology graph X(T, L) (paper Definition 2) with floorplan.
///
/// A Topology describes how tiles connect: each tile hosts one optical
/// router (and optionally one task); each directed link joins an output
/// port of one tile's router to an input port of another's, and carries
/// a physical waveguide length used for propagation loss.
///
/// The built-in builders (mesh, torus, ring) produce both the link graph
/// and a floorplan (grid positions with a configurable tile pitch).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "router/ports.hpp"
#include "util/error.hpp"

namespace phonoc {

using TileId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr TileId kInvalidTile = ~TileId{0};
inline constexpr LinkId kInvalidLink = ~LinkId{0};

/// A directed physical link l(i,j) from one router port to another.
struct Link {
  TileId src_tile;
  PortId src_port;  ///< output port of src_tile's router
  TileId dst_tile;
  PortId dst_port;  ///< input port of dst_tile's router
  double length_cm; ///< waveguide length of the link
};

/// Grid coordinates of a tile in the floorplan (row 0 = north edge).
struct TilePosition {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
};

class Topology {
 public:
  Topology(std::string name, std::size_t router_ports);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t router_ports() const noexcept {
    return router_ports_;
  }

  TileId add_tile(TilePosition position);

  /// Add a directed link; each (tile, port) endpoint may be used by at
  /// most one link in each direction. Lengths must be positive.
  LinkId add_link(TileId src_tile, PortId src_port, TileId dst_tile,
                  PortId dst_port, double length_cm);

  [[nodiscard]] std::size_t tile_count() const noexcept {
    return positions_.size();
  }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }
  [[nodiscard]] const Link& link(LinkId id) const;
  [[nodiscard]] const std::vector<Link>& links() const noexcept {
    return links_;
  }
  [[nodiscard]] TilePosition position(TileId tile) const;

  /// Link leaving `tile` through output `port`, or kInvalidLink.
  [[nodiscard]] LinkId link_from(TileId tile, PortId port) const;

  /// Tile at a grid position, or kInvalidTile (builders fill this map).
  [[nodiscard]] TileId tile_at(std::uint32_t row, std::uint32_t col) const;

  /// Grid extents derived from tile positions.
  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint32_t cols() const noexcept { return cols_; }

  /// Structural checks: all endpoints in range, no dangling references.
  void validate() const;

 private:
  std::string name_;
  std::size_t router_ports_;
  std::vector<TilePosition> positions_;
  std::vector<Link> links_;
  /// out_links_[tile * ports + port] / in_links_ analogous
  std::vector<LinkId> out_links_;
  std::vector<LinkId> in_links_;
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
};

/// Common floorplan knobs for the grid builders.
struct GridOptions {
  std::uint32_t rows = 4;
  std::uint32_t cols = 4;
  /// Center-to-center tile distance, millimetres. Default 2.5 mm
  /// (a 4x4 layout spans a 1 cm die edge).
  double tile_pitch_mm = 2.5;
};

}  // namespace phonoc
