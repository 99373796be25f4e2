// Unit tests for topologies: mesh, torus, ring, floorplan, registry.

#include <gtest/gtest.h>

#include <algorithm>

#include "topology/mesh.hpp"
#include "topology/registry.hpp"
#include "topology/ring.hpp"
#include "topology/torus.hpp"
#include "util/error.hpp"

namespace phonoc {
namespace {

TEST(Mesh, StructureCounts) {
  GridOptions options;
  options.rows = 3;
  options.cols = 4;
  const auto topo = build_mesh(options);
  EXPECT_EQ(topo.tile_count(), 12u);
  // Directed links: horizontal 3*(4-1)*2 + vertical (3-1)*4*2 = 18+16.
  EXPECT_EQ(topo.link_count(), 34u);
  EXPECT_EQ(topo.rows(), 3u);
  EXPECT_EQ(topo.cols(), 4u);
  EXPECT_EQ(topo.name(), "mesh3x4");
}

TEST(Mesh, NeighbourPortsAndLengths) {
  GridOptions options;
  options.rows = 2;
  options.cols = 2;
  options.tile_pitch_mm = 3.0;
  const auto topo = build_mesh(options);
  const auto t00 = topo.tile_at(0, 0);
  const auto t01 = topo.tile_at(0, 1);
  const auto t10 = topo.tile_at(1, 0);
  const auto east = topo.link_from(t00, kPortEast);
  ASSERT_NE(east, kInvalidLink);
  EXPECT_EQ(topo.link(east).dst_tile, t01);
  EXPECT_EQ(topo.link(east).dst_port, kPortWest);
  EXPECT_DOUBLE_EQ(topo.link(east).length_cm, 0.3);
  const auto south = topo.link_from(t00, kPortSouth);
  ASSERT_NE(south, kInvalidLink);
  EXPECT_EQ(topo.link(south).dst_tile, t10);
  EXPECT_EQ(topo.link(south).dst_port, kPortNorth);
  // Border tiles have no links outward.
  EXPECT_EQ(topo.link_from(t00, kPortNorth), kInvalidLink);
  EXPECT_EQ(topo.link_from(t00, kPortWest), kInvalidLink);
}

TEST(Mesh, TileAtRowMajor) {
  const auto topo = build_mesh(GridOptions{});
  EXPECT_EQ(topo.tile_at(0, 0), 0u);
  EXPECT_EQ(topo.tile_at(1, 0), 4u);
  EXPECT_EQ(topo.tile_at(9, 9), kInvalidTile);
  EXPECT_EQ(topo.position(5).row, 1u);
  EXPECT_EQ(topo.position(5).col, 1u);
}

TEST(Mesh, RejectsBadOptions) {
  GridOptions bad;
  bad.rows = 0;
  EXPECT_THROW(build_mesh(bad), InvalidArgument);
  GridOptions pitch;
  pitch.tile_pitch_mm = -1.0;
  EXPECT_THROW(build_mesh(pitch), InvalidArgument);
}

TEST(SquareSide, PaperSizingRule) {
  EXPECT_EQ(square_side_for(8), 3u);    // PIP -> 3x3 (paper statement)
  EXPECT_EQ(square_side_for(12), 4u);   // MPEG-4 / MWD / 263enc
  EXPECT_EQ(square_side_for(14), 4u);   // 263dec
  EXPECT_EQ(square_side_for(16), 4u);   // VOPD
  EXPECT_EQ(square_side_for(22), 5u);   // Wavelet
  EXPECT_EQ(square_side_for(32), 6u);   // DVOPD
  EXPECT_EQ(square_side_for(1), 1u);
  EXPECT_THROW((void)square_side_for(0), InvalidArgument);
}

TEST(Torus, EveryTileFullyConnected) {
  TorusOptions options;
  options.rows = 3;
  options.cols = 3;
  const auto topo = build_torus(options);
  EXPECT_EQ(topo.tile_count(), 9u);
  EXPECT_EQ(topo.link_count(), 36u);  // 4 directed links per tile
  for (TileId t = 0; t < topo.tile_count(); ++t)
    for (const PortId p : {kPortNorth, kPortEast, kPortSouth, kPortWest})
      EXPECT_NE(topo.link_from(t, p), kInvalidLink);
}

TEST(Torus, FoldedLayoutHasUniformDoubleLengths) {
  TorusOptions options;
  options.rows = 4;
  options.cols = 4;
  options.tile_pitch_mm = 2.5;
  const auto topo = build_torus(options);
  for (const auto& link : topo.links())
    EXPECT_DOUBLE_EQ(link.length_cm, 0.5);  // 2 * 2.5 mm
}

TEST(Torus, NaiveLayoutWrapLengths) {
  TorusOptions options;
  options.rows = 4;
  options.cols = 4;
  options.folded = false;
  const auto topo = build_torus(options);
  double max_len = 0;
  double min_len = 1e9;
  for (const auto& link : topo.links()) {
    max_len = std::max(max_len, link.length_cm);
    min_len = std::min(min_len, link.length_cm);
  }
  EXPECT_DOUBLE_EQ(min_len, 0.25);
  EXPECT_DOUBLE_EQ(max_len, 0.75);  // 3 pitches for the wrap
}

TEST(Torus, WrapLinkTopology) {
  TorusOptions options;
  options.rows = 3;
  options.cols = 3;
  const auto topo = build_torus(options);
  const auto east_edge = topo.tile_at(0, 2);
  const auto west_edge = topo.tile_at(0, 0);
  const auto wrap = topo.link_from(east_edge, kPortEast);
  ASSERT_NE(wrap, kInvalidLink);
  EXPECT_EQ(topo.link(wrap).dst_tile, west_edge);
}

TEST(Torus, RejectsTooSmall) {
  TorusOptions options;
  options.rows = 1;
  options.cols = 4;
  EXPECT_THROW(build_torus(options), InvalidArgument);
}

TEST(Ring, Structure) {
  RingOptions options;
  options.tiles = 6;
  const auto topo = build_ring(options);
  EXPECT_EQ(topo.tile_count(), 6u);
  EXPECT_EQ(topo.link_count(), 12u);
  const auto wrap = topo.link_from(5, kPortEast);
  ASSERT_NE(wrap, kInvalidLink);
  EXPECT_EQ(topo.link(wrap).dst_tile, 0u);
  EXPECT_DOUBLE_EQ(topo.link(wrap).length_cm, 0.25 * 5);
  EXPECT_THROW(build_ring(RingOptions{2, 2.5}), InvalidArgument);
}

TEST(Topology, AddLinkValidation) {
  Topology topo("t", 5);
  topo.add_tile(TilePosition{0, 0});
  topo.add_tile(TilePosition{0, 1});
  topo.add_link(0, kPortEast, 1, kPortWest, 0.25);
  // Port already used in each direction.
  EXPECT_THROW(topo.add_link(0, kPortEast, 1, kPortNorth, 0.25),
               InvalidArgument);
  EXPECT_THROW(topo.add_link(1, kPortEast, 1, kPortWest, 0.25),
               InvalidArgument);  // self-link
  EXPECT_THROW(topo.add_link(0, kPortSouth, 1, kPortNorth, 0.0),
               InvalidArgument);  // zero length
  EXPECT_THROW(topo.add_link(0, 9, 1, kPortNorth, 0.25), InvalidArgument);
}

TEST(TopologyRegistry, BuiltinsAndOptions) {
  GridOptions options;
  options.rows = 2;
  options.cols = 3;
  EXPECT_EQ(make_topology("mesh", options).tile_count(), 6u);
  EXPECT_EQ(make_topology("Torus", options).tile_count(), 6u);
  EXPECT_EQ(make_topology("ring", options).tile_count(), 6u);
  EXPECT_THROW(make_topology("moebius", options), InvalidArgument);
}

TEST(TopologyRegistry, CustomRegistration) {
  register_topology("single_row", [](const GridOptions& o) {
    GridOptions row = o;
    row.rows = 1;
    return build_mesh(row);
  });
  GridOptions options;
  options.rows = 4;
  options.cols = 4;
  EXPECT_EQ(make_topology("single_row", options).tile_count(), 4u);
}

}  // namespace
}  // namespace phonoc
