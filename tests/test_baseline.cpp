// Tests for the baseline spanner constructions (Baswana–Sen, topology
// collection, Voronoi-cell nearly-additive stage).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "baseline/baswana_sen.hpp"
#include "baseline/nearly_additive.hpp"
#include "baseline/topology_collect.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/spanner_check.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace fl {
namespace {

using graph::EdgeId;
using graph::Graph;

TEST(BaswanaSen, KOneKeepsAllEdges) {
  util::Xoshiro256 rng(3);
  const Graph g = graph::erdos_renyi_gnm(100, 500, rng);
  const auto res = baseline::build_baswana_sen(g, 1, 7);
  EXPECT_EQ(res.edges.size(), g.num_edges());
}

TEST(BaswanaSen, StretchBoundHolds) {
  util::Xoshiro256 rng(5);
  for (unsigned k : {2u, 3u}) {
    const Graph g = graph::erdos_renyi_gnm(300, 4000, rng);
    const auto res = baseline::build_baswana_sen(g, k, 11 + k);
    const auto rep =
        graph::check_spanner_exact(g, res.edges, res.stretch_bound());
    EXPECT_TRUE(rep.connected) << "k=" << k;
    EXPECT_EQ(rep.violations, 0u) << "k=" << k;
  }
}

TEST(BaswanaSen, SparsifiesDenseGraphs) {
  const Graph g = graph::complete(300);
  const auto res = baseline::build_baswana_sen(g, 3, 13);
  // E|S| = O(k n^{1+1/k}); generous factor for the constants.
  const double bound = 12.0 * 3.0 * std::pow(300.0, 1.0 + 1.0 / 3.0);
  EXPECT_LT(static_cast<double>(res.edges.size()), bound);
  EXPECT_LT(res.edges.size(), g.num_edges() / 3);
}

TEST(BaswanaSen, DeterministicGivenSeed) {
  util::Xoshiro256 rng(7);
  const Graph g = graph::erdos_renyi_gnm(200, 2000, rng);
  const auto a = baseline::build_baswana_sen(g, 2, 99);
  const auto b = baseline::build_baswana_sen(g, 2, 99);
  EXPECT_EQ(a.edges, b.edges);
}

TEST(BaswanaSen, DistributedMatchesCentralized) {
  // Same keyed coins => identical decisions => identical spanners.
  util::Xoshiro256 rng(11);
  const Graph g = graph::erdos_renyi_gnm(250, 2500, rng);
  for (unsigned k : {2u, 3u}) {
    const auto central = baseline::build_baswana_sen(g, k, 31);
    const auto dist = baseline::run_distributed_baswana_sen(g, k, 31);
    EXPECT_EQ(central.edges, dist.result.edges) << "k=" << k;
  }
}

TEST(BaswanaSen, DistributedIgnoresAStrayCongestVariable) {
  // The CONGEST budget is a run argument only: an exported FL_SIM_CONGEST
  // must neither budget a fresh network nor stretch this LOCAL-timed
  // protocol past its fixed round count.
  struct EnvGuard {
    const char* saved = std::getenv("FL_SIM_CONGEST");
    std::string value = saved != nullptr ? saved : "";
    EnvGuard() { setenv("FL_SIM_CONGEST", "1", 1); }
    ~EnvGuard() {
      if (saved != nullptr) {
        setenv("FL_SIM_CONGEST", value.c_str(), 1);
      } else {
        unsetenv("FL_SIM_CONGEST");
      }
    }
  } guard;
  util::Xoshiro256 rng(11);
  const Graph g = graph::erdos_renyi_gnm(250, 2500, rng);
  EXPECT_FALSE(sim::Network(g, 1).congest().enforced());
  for (unsigned k : {2u, 3u}) {
    const auto central = baseline::build_baswana_sen(g, k, 31);
    const auto dist = baseline::run_distributed_baswana_sen(g, k, 31);
    EXPECT_EQ(central.edges, dist.result.edges) << "k=" << k;
  }
}

TEST(BaswanaSen, DistributedUsesOmegaMMessages) {
  // The whole point of the baseline: its message count scales with m.
  util::Xoshiro256 rng(13);
  const graph::NodeId n = 256;
  const Graph sparse = graph::erdos_renyi_gnm(n, 4 * n, rng);
  const Graph dense = graph::erdos_renyi_gnm(n, 24 * n, rng);
  const auto rs = baseline::run_distributed_baswana_sen(sparse, 2, 17);
  const auto rd = baseline::run_distributed_baswana_sen(dense, 2, 17);
  // Messages at least the first-round announcement: 2m each way.
  EXPECT_GE(rs.stats.messages, 2 * static_cast<std::uint64_t>(sparse.num_edges()));
  EXPECT_GE(rd.stats.messages, 2 * static_cast<std::uint64_t>(dense.num_edges()));
  const double ratio = static_cast<double>(rd.stats.messages) /
                       static_cast<double>(rs.stats.messages);
  EXPECT_GT(ratio, 3.0);  // ~6x density -> clearly density-scaled messages
}

TEST(BaswanaSen, DistributedRoundsLinearInK) {
  util::Xoshiro256 rng(17);
  const Graph g = graph::erdos_renyi_gnm(200, 1600, rng);
  for (unsigned k : {2u, 3u, 4u}) {
    const auto run = baseline::run_distributed_baswana_sen(g, k, 19);
    EXPECT_LE(run.stats.rounds, 2 * k + 4) << "k=" << k;
  }
}

TEST(TopologyCollect, ProducesSameSpannerAsCentralBaswanaSen) {
  util::Xoshiro256 rng(19);
  const Graph g = graph::erdos_renyi_gnm(150, 900, rng);
  const auto run = baseline::run_topology_collect(g, 2, 23);
  const auto central = baseline::build_baswana_sen(g, 2, 23);
  EXPECT_EQ(run.edges, central.edges);
}

TEST(TopologyCollect, RoundsScaleWithDiameter) {
  const Graph ringg = graph::ring(200);      // diameter 100
  const Graph clique = graph::complete(200); // diameter 1
  const auto r1 = baseline::run_topology_collect(ringg, 2, 29);
  const auto r2 = baseline::run_topology_collect(clique, 2, 29);
  EXPECT_GT(r1.stats.rounds, 20 * r2.stats.rounds);
}

TEST(TopologyCollect, MessagesScaleWithEdges) {
  util::Xoshiro256 rng(23);
  const graph::NodeId n = 200;
  const Graph sparse = graph::erdos_renyi_gnm(n, 2 * n, rng);
  const Graph dense = graph::erdos_renyi_gnm(n, 20 * n, rng);
  const auto rs = baseline::run_topology_collect(sparse, 2, 31);
  const auto rd = baseline::run_topology_collect(dense, 2, 31);
  EXPECT_GE(rd.stats.messages, 2 * static_cast<std::uint64_t>(dense.num_edges()));
  EXPECT_GT(static_cast<double>(rd.stats.messages),
            4.0 * static_cast<double>(rs.stats.messages));
}

TEST(TopologyCollect, WorksOnPathAndStar) {
  const auto p = baseline::run_topology_collect(graph::path(50), 2, 37);
  EXPECT_EQ(p.edges.size(), 49u);  // trees keep every edge
  const auto s = baseline::run_topology_collect(graph::star(50), 2, 37);
  EXPECT_EQ(s.edges.size(), 49u);
}

TEST(NearlyAdditive, StretchBoundHolds) {
  util::Xoshiro256 rng(29);
  for (unsigned r : {1u, 2u, 3u}) {
    const Graph g = graph::erdos_renyi_gnm(300, 3000, rng);
    const auto res = baseline::build_nearly_additive(g, r, 41 + r);
    const auto rep =
        graph::check_spanner_exact(g, res.edges, res.stretch_bound());
    EXPECT_TRUE(rep.connected) << "r=" << r;
    EXPECT_EQ(rep.violations, 0u) << "r=" << r;
  }
}

TEST(NearlyAdditive, LocalEdgesUnionEqualsGlobal) {
  // The ball-locality property that makes it a t-round LOCAL algorithm.
  util::Xoshiro256 rng(31);
  const Graph g = graph::erdos_renyi_gnm(200, 1400, rng);
  const unsigned r = 2;
  const std::uint64_t seed = 43;
  const auto global = baseline::build_nearly_additive(g, r, seed);
  std::vector<bool> in_union(g.num_edges(), false);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
    for (const EdgeId e : baseline::nearly_additive_local_edges(g, v, r, seed))
      in_union[e] = true;
  std::vector<EdgeId> union_edges;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (in_union[e]) union_edges.push_back(e);
  EXPECT_EQ(union_edges, global.edges);
}

TEST(NearlyAdditive, SparsifiesDenseGraphs) {
  const Graph g = graph::complete(400);
  const auto res = baseline::build_nearly_additive(g, 2, 47);
  EXPECT_LT(res.edges.size(), g.num_edges() / 4);
  EXPECT_EQ(res.unclustered, 0u);  // K_n: everyone within 1 of any center
}

TEST(NearlyAdditive, UnclusteredNodesKeepEdges) {
  // A long path with radius 1 and few centers leaves unclustered nodes;
  // connectivity must survive because they keep their incident edges.
  const Graph g = graph::path(300);
  const auto res = baseline::build_nearly_additive(g, 1, 53);
  const graph::SubgraphView h(g, res.edges);
  EXPECT_TRUE(h.preserves_connectivity());
}

TEST(NearlyAdditive, CenterCountNearExpectation) {
  const graph::NodeId n = 4096;
  const Graph g = graph::ring(n);
  const auto res = baseline::build_nearly_additive(g, 3, 59);
  const double expected = n * baseline::nearly_additive_center_prob(n);
  EXPECT_GT(static_cast<double>(res.centers), expected / 2.0);
  EXPECT_LT(static_cast<double>(res.centers), expected * 2.0);
}

}  // namespace
}  // namespace fl
