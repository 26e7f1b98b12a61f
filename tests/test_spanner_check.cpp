// Tests for the spanner verification oracle itself (the checker must be
// trustworthy before it can certify Theorem 9).
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/spanner_check.hpp"
#include "util/rng.hpp"

namespace fl::graph {
namespace {

TEST(SpannerCheck, FullGraphIsOneSpanner) {
  util::Xoshiro256 rng(3);
  const Graph g = erdos_renyi_gnm(60, 200, rng);
  std::vector<EdgeId> all(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  const auto rep = check_spanner_exact(g, all, 1.0);
  EXPECT_TRUE(rep.connected);
  EXPECT_DOUBLE_EQ(rep.max_edge_stretch, 1.0);
  EXPECT_DOUBLE_EQ(rep.mean_edge_stretch, 1.0);
  EXPECT_EQ(rep.violations, 0u);
  EXPECT_EQ(rep.edges_checked, g.num_edges());
}

TEST(SpannerCheck, RingMinusOneEdge) {
  // C_n minus one edge: that edge's endpoints are n-1 apart in H.
  const NodeId n = 10;
  const Graph g = ring(n);
  std::vector<EdgeId> edges;
  for (EdgeId e = 1; e < g.num_edges(); ++e) edges.push_back(e);
  const auto rep = check_spanner_exact(g, edges, static_cast<double>(n - 2));
  EXPECT_TRUE(rep.connected);
  EXPECT_DOUBLE_EQ(rep.max_edge_stretch, static_cast<double>(n - 1));
  EXPECT_EQ(rep.violations, 1u);
}

TEST(SpannerCheck, DisconnectedSpannerFlagged) {
  const Graph g = ring(8);
  const std::vector<EdgeId> half{0, 1, 2};
  const auto rep = check_spanner_exact(g, half, 100.0);
  EXPECT_FALSE(rep.connected);
  EXPECT_GT(rep.violations, 0u);  // missing edges read as dist n
}

TEST(SpannerCheck, SpanningTreeStretchOnGrid) {
  const Graph g = grid(5, 5);
  const auto tree = spanning_forest(g);
  const auto rep = check_spanner_exact(g, tree, 0.0);
  EXPECT_TRUE(rep.connected);
  // BFS-tree stretch of a grid edge is odd and small; just sanity-check
  // bounds: at least 1, at most 2*diameter.
  EXPECT_GE(rep.max_edge_stretch, 2.0);
  EXPECT_LE(rep.max_edge_stretch, 2.0 * diameter_exact(g) + 1);
}

TEST(SpannerCheck, SampledAgreesWithExactOnMax) {
  util::Xoshiro256 rng(5);
  const Graph g = erdos_renyi_gnm(80, 240, rng);
  const auto tree = spanning_forest(g);
  const auto exact = check_spanner_exact(g, tree, 0.0);
  util::Xoshiro256 rng2(7);
  // Sampling ALL edges with a deep cap must reproduce the exact max.
  const auto sampled = check_spanner_sampled(g, tree, g.num_edges(),
                                             g.num_nodes(), rng2, 0.0);
  EXPECT_DOUBLE_EQ(sampled.max_edge_stretch, exact.max_edge_stretch);
  EXPECT_EQ(sampled.edges_checked, exact.edges_checked);
}

TEST(SpannerCheck, SampledDepthCapSaturates) {
  const NodeId n = 12;
  const Graph g = ring(n);
  std::vector<EdgeId> edges;
  for (EdgeId e = 1; e < g.num_edges(); ++e) edges.push_back(e);
  util::Xoshiro256 rng(11);
  const auto rep = check_spanner_sampled(g, edges, g.num_edges(), 3, rng, 0.0);
  // The removed edge's endpoints are 11 apart; the cap reports cap+1 = 4.
  EXPECT_DOUBLE_EQ(rep.max_edge_stretch, 4.0);
}

TEST(SpannerCheck, CappedDistanceMatchesFullBfs) {
  // The sampled checker's early-exit probe must agree with a capped BFS
  // that fills the whole distance vector: on the spanner's own edges, on
  // the G-edges it dropped (distances up to the stretch), from a node to
  // itself, and for targets beyond the cap.
  util::Xoshiro256 rng(41);
  const Graph graphs[] = {erdos_renyi_gnm(120, 600, rng), grid(8, 9),
                          ring(12), barabasi_albert(100, 3, rng)};
  for (const Graph& g : graphs) {
    // Every other edge outside a spanning forest is dropped (the first
    // one included), so H keeps G's connectivity but stretches the dropped
    // edges.
    const auto forest = spanning_forest(g);
    std::vector<bool> in_forest(g.num_edges(), false);
    for (const EdgeId e : forest) in_forest[e] = true;
    std::vector<EdgeId> kept = forest;
    for (EdgeId e = 0, other = 0; e < g.num_edges(); ++e)
      if (!in_forest[e] && (other++ % 2 == 1)) kept.push_back(e);
    ASSERT_LT(kept.size(), g.num_edges()) << g.summary();
    const SubgraphView h(g, kept);
    bool saw_beyond_cap = false;
    for (std::uint32_t cap = 1; cap <= 5; ++cap) {
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        const auto dist = h.bfs_distances_bounded(u, cap);
        EXPECT_EQ(h.distance_capped(u, u, cap), 0u);
        for (const Incidence& inc : g.incident(u)) {
          EXPECT_EQ(h.distance_capped(u, inc.to, cap), dist[inc.to])
              << g.summary() << " u=" << u << " v=" << inc.to
              << " cap=" << cap;
          saw_beyond_cap |= dist[inc.to] == kUnreachable;
        }
        // A target that is not a G-neighbour, possibly far beyond the cap.
        const NodeId far = (u + g.num_nodes() / 2) % g.num_nodes();
        EXPECT_EQ(h.distance_capped(u, far, cap), dist[far]);
        saw_beyond_cap |= dist[far] == kUnreachable;
      }
    }
    EXPECT_TRUE(saw_beyond_cap) << g.summary();
  }
}

TEST(SpannerCheck, ValidatesEdgeSubset) {
  const Graph g = complete(5);
  EXPECT_TRUE(is_valid_edge_subset(g, std::vector<EdgeId>{0, 3, 9}));
  EXPECT_FALSE(is_valid_edge_subset(g, std::vector<EdgeId>{0, 0}));
  EXPECT_FALSE(is_valid_edge_subset(g, std::vector<EdgeId>{10}));
  EXPECT_THROW(check_spanner_exact(g, std::vector<EdgeId>{0, 0}),
               util::ContractViolation);
}

}  // namespace
}  // namespace fl::graph
