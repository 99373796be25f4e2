// Unit tests for the routing algorithms: XY, YX, torus DOR, tables.

#include <gtest/gtest.h>

#include <algorithm>

#include "router/crossbar.hpp"
#include "routing/registry.hpp"
#include "routing/table_routing.hpp"
#include "routing/torus_dor.hpp"
#include "routing/xy.hpp"
#include "routing/yx.hpp"
#include "topology/mesh.hpp"
#include "topology/ring.hpp"
#include "topology/torus.hpp"
#include "util/error.hpp"

namespace phonoc {
namespace {

Topology mesh4() {
  GridOptions options;
  options.rows = 4;
  options.cols = 4;
  return build_mesh(options);
}

TEST(XyRouting, GoesXThenY) {
  const auto topo = mesh4();
  const XyRouting xy;
  // (0,0) -> (2,3): 3 east, 2 south.
  const auto route = xy.compute_route(topo, topo.tile_at(0, 0),
                                      topo.tile_at(2, 3));
  ASSERT_EQ(route.hop_count(), 6u);
  EXPECT_EQ(route.hops.front().in_port, kPortLocal);
  EXPECT_EQ(route.hops.back().out_port, kPortLocal);
  EXPECT_EQ(route.hops[0].out_port, kPortEast);
  EXPECT_EQ(route.hops[1].out_port, kPortEast);
  EXPECT_EQ(route.hops[2].out_port, kPortEast);
  EXPECT_EQ(route.hops[3].out_port, kPortSouth);
  EXPECT_EQ(route.hops[4].out_port, kPortSouth);
}

TEST(XyRouting, NeverEmitsYToXTurns) {
  const auto topo = mesh4();
  const XyRouting xy;
  for (TileId s = 0; s < topo.tile_count(); ++s) {
    for (TileId d = 0; d < topo.tile_count(); ++d) {
      if (s == d) continue;
      const auto route = xy.compute_route(topo, s, d);
      for (const auto& hop : route.hops) {
        EXPECT_TRUE(xy_legal_connection(hop.in_port, hop.out_port))
            << "illegal " << standard_port_name(hop.in_port) << "->"
            << standard_port_name(hop.out_port);
      }
    }
  }
}

TEST(XyRouting, MinimalHopCount) {
  const auto topo = mesh4();
  const XyRouting xy;
  for (TileId s = 0; s < topo.tile_count(); ++s) {
    for (TileId d = 0; d < topo.tile_count(); ++d) {
      if (s == d) continue;
      const auto ps = topo.position(s);
      const auto pd = topo.position(d);
      const auto manhattan =
          (ps.row > pd.row ? ps.row - pd.row : pd.row - ps.row) +
          (ps.col > pd.col ? ps.col - pd.col : pd.col - ps.col);
      EXPECT_EQ(xy.compute_route(topo, s, d).hop_count(), manhattan + 1);
    }
  }
}

TEST(XyRouting, RejectsSelfRoute) {
  const auto topo = mesh4();
  EXPECT_THROW(XyRouting{}.compute_route(topo, 3, 3), InvalidArgument);
}

TEST(YxRouting, GoesYThenX) {
  const auto topo = mesh4();
  const YxRouting yx;
  const auto route = yx.compute_route(topo, topo.tile_at(0, 0),
                                      topo.tile_at(2, 3));
  EXPECT_EQ(route.hops[0].out_port, kPortSouth);
  EXPECT_EQ(route.hops[2].out_port, kPortEast);
  // YX emits Y->X turns (which Crux cannot serve).
  bool has_y_to_x = false;
  for (const auto& hop : route.hops)
    if ((hop.in_port == kPortNorth || hop.in_port == kPortSouth) &&
        (hop.out_port == kPortEast || hop.out_port == kPortWest))
      has_y_to_x = true;
  EXPECT_TRUE(has_y_to_x);
}

TEST(TorusDor, TakesShortestWrap) {
  TorusOptions options;
  options.rows = 4;
  options.cols = 4;
  const auto topo = build_torus(options);
  const TorusDorRouting dor;
  // (0,0) -> (0,3): wrap west (1 hop) beats 3 hops east.
  const auto route = dor.compute_route(topo, topo.tile_at(0, 0),
                                       topo.tile_at(0, 3));
  EXPECT_EQ(route.hop_count(), 2u);
  EXPECT_EQ(route.hops[0].out_port, kPortWest);
  // (0,0) -> (0,2): tie (2 either way) broken toward East.
  const auto tie = dor.compute_route(topo, topo.tile_at(0, 0),
                                     topo.tile_at(0, 2));
  EXPECT_EQ(tie.hop_count(), 3u);
  EXPECT_EQ(tie.hops[0].out_port, kPortEast);
}

TEST(TorusDor, DiameterHalvedVersusMesh) {
  TorusOptions options;
  options.rows = 4;
  options.cols = 4;
  const auto torus = build_torus(options);
  const TorusDorRouting dor;
  std::size_t max_hops = 0;
  for (TileId s = 0; s < torus.tile_count(); ++s)
    for (TileId d = 0; d < torus.tile_count(); ++d)
      if (s != d)
        max_hops = std::max(max_hops, dor.compute_route(torus, s, d)
                                          .hop_count());
  // Torus diameter 2+2 -> 5 routers; 4x4 mesh would be 7.
  EXPECT_EQ(max_hops, 5u);
}

TEST(TorusDor, AsymmetricGridRoutesCorrectly) {
  // Rectangular torus: wrap distances differ per dimension.
  TorusOptions options;
  options.rows = 3;
  options.cols = 5;
  const auto topo = build_torus(options);
  const TorusDorRouting dor;
  for (TileId s = 0; s < topo.tile_count(); ++s) {
    for (TileId d = 0; d < topo.tile_count(); ++d) {
      if (s == d) continue;
      const auto route = dor.compute_route(topo, s, d);
      EXPECT_NO_THROW(validate_route(topo, route, s, d));
      // Hop count is 1 + cyclic Manhattan distance.
      const auto ps = topo.position(s);
      const auto pd = topo.position(d);
      const auto cyc = [](std::uint32_t a, std::uint32_t b,
                          std::uint32_t n) {
        const auto fwd = (b + n - a) % n;
        return std::min(fwd, n - fwd);
      };
      EXPECT_EQ(route.hop_count(),
                1 + cyc(ps.col, pd.col, 5) + cyc(ps.row, pd.row, 3));
    }
  }
}

TEST(RouteValidation, CatchesCorruptRoutes) {
  const auto topo = mesh4();
  const XyRouting xy;
  auto route = xy.compute_route(topo, 0, 3);
  EXPECT_NO_THROW(validate_route(topo, route, 0, 3));
  auto bad = route;
  bad.hops.back().out_port = kPortEast;  // must end at Local
  EXPECT_THROW(validate_route(topo, bad, 0, 3), ModelError);
  auto bad2 = route;
  bad2.links.pop_back();
  EXPECT_THROW(validate_route(topo, bad2, 0, 3), ModelError);
  auto bad3 = route;
  bad3.hops.front().in_port = kPortNorth;
  EXPECT_THROW(validate_route(topo, bad3, 0, 3), ModelError);
}

TEST(ExtendRoute, ThrowsOffGrid) {
  const auto topo = mesh4();
  auto route = start_route(0);
  EXPECT_THROW(extend_route(topo, route, kPortNorth), ModelError);
}

TEST(TableRouting, ManualRoutes) {
  const auto topo = mesh4();
  TableRouting table;
  EXPECT_THROW(table.compute_route(topo, 0, 5), ModelError);
  table.set_route(0, 5, {kPortEast, kPortSouth});
  const auto route = table.compute_route(topo, 0, 5);
  EXPECT_EQ(route.hop_count(), 3u);
  EXPECT_EQ(route.hops.back().tile, 5u);
  EXPECT_THROW(table.compute_route(topo, 0, 9), ModelError);
  EXPECT_THROW(table.set_route(1, 1, {kPortEast}), InvalidArgument);
}

TEST(TableRouting, ShortestPathsCoverMesh) {
  const auto topo = mesh4();
  const auto table = TableRouting::shortest_paths(topo);
  for (TileId s = 0; s < topo.tile_count(); ++s) {
    for (TileId d = 0; d < topo.tile_count(); ++d) {
      if (s == d) continue;
      const auto route = table.compute_route(topo, s, d);
      EXPECT_NO_THROW(validate_route(topo, route, s, d));
      const auto ps = topo.position(s);
      const auto pd = topo.position(d);
      const auto manhattan =
          (ps.row > pd.row ? ps.row - pd.row : pd.row - ps.row) +
          (ps.col > pd.col ? ps.col - pd.col : pd.col - ps.col);
      EXPECT_EQ(route.hop_count(), manhattan + 1);  // BFS = minimal
    }
  }
}

TEST(TableRouting, ShortestPathsOnRing) {
  const auto topo = build_ring(RingOptions{5, 2.5});
  const auto table = TableRouting::shortest_paths(topo);
  // 0 -> 2: two hops east or three west; BFS must pick two.
  EXPECT_EQ(table.compute_route(topo, 0, 2).hop_count(), 3u);
}

TEST(RoutingRegistry, Builtins) {
  for (const auto* expected : {"xy", "yx", "torus_dor"})
    EXPECT_EQ(make_routing(expected)->name(), expected);
  EXPECT_EQ(make_routing("XY")->name(), "xy");
  EXPECT_THROW(make_routing("zigzag"), InvalidArgument);
}

}  // namespace
}  // namespace phonoc
