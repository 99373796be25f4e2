// Unit tests for the graph layer: Digraph, algorithms, CommGraph.

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/comm_graph.hpp"
#include "graph/digraph.hpp"
#include "util/error.hpp"

namespace phonoc {
namespace {

Digraph<int> diamond() {
  Digraph<int> g(4);
  g.add_edge(0, 1, 10);
  g.add_edge(0, 2, 20);
  g.add_edge(1, 3, 30);
  g.add_edge(2, 3, 40);
  return g;
}

TEST(Digraph, BasicConstruction) {
  auto g = diamond();
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(3), 2u);
  EXPECT_EQ(g.edge(0).data, 10);
  EXPECT_EQ(g.edge(0).src, 0u);
  EXPECT_EQ(g.edge(0).dst, 1u);
}

TEST(Digraph, AddNodeGrows) {
  Digraph<int> g;
  EXPECT_EQ(g.node_count(), 0u);
  const auto n = g.add_node();
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(g.node_count(), 1u);
}

TEST(Digraph, FindEdge) {
  auto g = diamond();
  EXPECT_NE(g.find_edge(0, 1), kInvalidEdge);
  EXPECT_EQ(g.find_edge(1, 0), kInvalidEdge);
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(3, 0));
}

TEST(Digraph, OutOfRangeThrows) {
  Digraph<int> g(2);
  EXPECT_THROW(g.add_edge(0, 5), InvalidArgument);
  EXPECT_THROW((void)g.edge(99), InvalidArgument);
  EXPECT_THROW((void)g.out_edges(7), InvalidArgument);
}

TEST(Algorithms, BfsDistances) {
  auto g = diamond();
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 1u);
  EXPECT_EQ(dist[3], 2u);
  const auto from3 = bfs_distances(g, 3);
  EXPECT_EQ(from3[0], kUnreachable);  // directed: no way back
}

TEST(Algorithms, WeakConnectivity) {
  auto g = diamond();
  EXPECT_TRUE(is_weakly_connected(g));
  Digraph<int> two(2);  // no edges
  EXPECT_FALSE(is_weakly_connected(two));
  Digraph<int> empty;
  EXPECT_TRUE(is_weakly_connected(empty));
}

TEST(Algorithms, TopologicalOrder) {
  auto g = diamond();
  const auto order = topological_order(g);
  ASSERT_TRUE(order.has_value());
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(Algorithms, CycleDetection) {
  auto g = diamond();
  EXPECT_FALSE(has_cycle(g));
  g.add_edge(3, 0);
  EXPECT_TRUE(has_cycle(g));
  EXPECT_FALSE(topological_order(g).has_value());
}

TEST(Algorithms, Diameter) {
  auto g = diamond();
  EXPECT_EQ(diameter(g), 2u);
  Digraph<int> chain(5);
  for (NodeId i = 0; i + 1 < 5; ++i) chain.add_edge(i, i + 1);
  EXPECT_EQ(diameter(chain), 4u);
}

// --- CommGraph -----------------------------------------------------------------

TEST(CommGraph, BuildAndQuery) {
  CommGraph cg("app");
  const auto a = cg.add_task("a");
  const auto b = cg.add_task("b");
  cg.add_task("c");
  cg.add_communication(a, b, 64.0);
  cg.add_communication("b", "c", 32.0);
  EXPECT_EQ(cg.task_count(), 3u);
  EXPECT_EQ(cg.communication_count(), 2u);
  EXPECT_EQ(cg.task_name(a), "a");
  EXPECT_EQ(cg.find_task("c"), 2u);
  EXPECT_EQ(cg.find_task("zz"), kInvalidNode);
  EXPECT_NO_THROW(cg.validate());
}

TEST(CommGraph, EdgesViewPreservesOrder) {
  CommGraph cg;
  cg.add_task("x");
  cg.add_task("y");
  cg.add_task("z");
  cg.add_communication("x", "y", 1.0);
  cg.add_communication("y", "z", 2.0);
  const auto edges = cg.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].src, 0u);
  EXPECT_DOUBLE_EQ(edges[1].bandwidth_mbps, 2.0);
}

TEST(CommGraph, RejectsDuplicateTaskNames) {
  CommGraph cg;
  cg.add_task("t");
  EXPECT_THROW(cg.add_task("t"), InvalidArgument);
  EXPECT_THROW(cg.add_task(""), InvalidArgument);
}

TEST(CommGraph, RejectsSelfLoop) {
  CommGraph cg;
  const auto t = cg.add_task("t");
  EXPECT_THROW(cg.add_communication(t, t, 1.0), InvalidArgument);
}

TEST(CommGraph, RejectsDuplicateEdge) {
  CommGraph cg;
  cg.add_task("a");
  cg.add_task("b");
  cg.add_communication("a", "b", 1.0);
  EXPECT_THROW(cg.add_communication("a", "b", 2.0), InvalidArgument);
  // The reverse direction is a distinct communication.
  EXPECT_NO_THROW(cg.add_communication("b", "a", 2.0));
}

TEST(CommGraph, RejectsUnknownEndpointsAndNegativeBandwidth) {
  CommGraph cg;
  cg.add_task("a");
  cg.add_task("b");
  EXPECT_THROW(cg.add_communication("a", "nope", 1.0), InvalidArgument);
  EXPECT_THROW(cg.add_communication(0u, 1u, -1.0), InvalidArgument);
  EXPECT_THROW(cg.add_communication(0u, 9u, 1.0), InvalidArgument);
}

TEST(CommGraph, ValidateRequiresATask) {
  const CommGraph cg;
  EXPECT_THROW(cg.validate(), InvalidArgument);
}

}  // namespace
}  // namespace phonoc
