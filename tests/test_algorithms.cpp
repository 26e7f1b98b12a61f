// Tests for BFS / connectivity / diameter / subgraph views.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace fl::graph {
namespace {

TEST(Bfs, DistancesOnPath) {
  const Graph g = path(6);
  const auto d = bfs_distances(g, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
}

TEST(Bfs, BoundedTruncates) {
  const Graph g = path(10);
  const auto d = bfs_distances_bounded(g, 0, 3);
  EXPECT_EQ(d[3], 3u);
  EXPECT_EQ(d[4], kUnreachable);
}

TEST(Bfs, UnreachableAcrossComponents) {
  Graph::Builder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = std::move(b).build();
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(Components, CountsAndLabels) {
  Graph::Builder b(5);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = std::move(b).build();
  const auto c = connected_components(g);
  EXPECT_EQ(c.count, 3u);
  EXPECT_EQ(c.label[0], c.label[1]);
  EXPECT_EQ(c.label[2], c.label[3]);
  EXPECT_NE(c.label[0], c.label[2]);
  EXPECT_NE(c.label[4], c.label[0]);
  EXPECT_FALSE(is_connected(g));
}

TEST(Diameter, ExactMatchesKnownValues) {
  EXPECT_EQ(diameter_exact(ring(10)), 5u);
  EXPECT_EQ(diameter_exact(complete(10)), 1u);
  EXPECT_EQ(diameter_exact(star(10)), 2u);
  EXPECT_EQ(diameter_exact(grid(3, 7)), 8u);
}

TEST(Diameter, DoubleSweepLowerBoundsExact) {
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 5; ++i) {
    const Graph g = erdos_renyi_gnm(80, 160, rng);
    const auto exact = diameter_exact(g);
    const auto sweep = diameter_double_sweep(g);
    EXPECT_LE(sweep, exact);
    EXPECT_GE(2 * sweep, exact);  // classic 2-approximation guarantee
  }
}

TEST(SpanningForest, SizeAndAcyclicity) {
  util::Xoshiro256 rng(5);
  const Graph g = erdos_renyi_gnm(100, 400, rng);
  const auto forest = spanning_forest(g);
  EXPECT_EQ(forest.size(), 99u);  // connected: n-1 edges
  const SubgraphView view(g, forest);
  EXPECT_TRUE(view.preserves_connectivity());
}

TEST(SpanningForest, PerComponent) {
  Graph::Builder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(3, 4);
  const Graph g = std::move(b).build();
  EXPECT_EQ(spanning_forest(g).size(), 3u);  // 2 + 1
}

TEST(SubgraphView, RestrictsDistances) {
  // Ring of 8; keep only 7 edges -> a path; distances stretch accordingly.
  const Graph g = ring(8);
  std::vector<EdgeId> edges;
  for (EdgeId e = 0; e + 1 < g.num_edges(); ++e) edges.push_back(e);
  const SubgraphView h(g, edges);
  EXPECT_EQ(h.num_edges(), 7u);
  const auto dg = bfs_distances(g, 0);
  const auto dh = h.bfs_distances(0);
  // In G the two ring neighbours are at distance 1; in the path one of
  // them is at distance 7.
  std::uint32_t max_h = 0;
  for (const auto d : dh) max_h = std::max(max_h, d);
  EXPECT_EQ(max_h, 7u);
  std::uint32_t max_g = 0;
  for (const auto d : dg) max_g = std::max(max_g, d);
  EXPECT_EQ(max_g, 4u);
}

TEST(SubgraphView, DetectsDisconnection) {
  const Graph g = ring(6);
  const std::vector<EdgeId> too_few{0, 1};
  const SubgraphView h(g, too_few);
  EXPECT_FALSE(h.preserves_connectivity());
}

TEST(SubgraphView, EmptyEdgeSet) {
  const Graph g = complete(4);
  const SubgraphView h(g, {});
  EXPECT_EQ(h.num_edges(), 0u);
  const auto d = h.bfs_distances(0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], kUnreachable);
}

}  // namespace
}  // namespace fl::graph
