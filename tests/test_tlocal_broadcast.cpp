// Tests for t-local broadcast (paper Section 6, Lemma 12).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baseline/baswana_sen.hpp"
#include "core/config.hpp"
#include "core/sampler.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "sim/congest.hpp"
#include "util/rng.hpp"

namespace fl {
namespace {

using graph::Graph;
using graph::NodeId;

/// Ground truth: B_H(v, R), H the edge subset, as an n-bit origin set.
localsim::OriginSet ball_members(const Graph& g,
                                 const std::vector<graph::EdgeId>& edges,
                                 NodeId v, unsigned radius) {
  const graph::SubgraphView h(g, edges);
  const auto dist = h.bfs_distances_bounded(v, radius);
  localsim::OriginSet out;
  out.words.assign((g.num_nodes() + 63) / 64, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    if (dist[u] != graph::kUnreachable) {
      out.words[u / 64] |= std::uint64_t{1} << (u % 64);
      ++out.count;
    }
  return out;
}

TEST(TLocalBroadcast, CollectsExactlyTheBall) {
  util::Xoshiro256 rng(3);
  const Graph g = graph::erdos_renyi_gnm(120, 500, rng);
  for (unsigned t : {0u, 1u, 2u, 3u}) {
    const auto run =
        localsim::run_tlocal_broadcast(g, localsim::all_edges(g), t, 7);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      EXPECT_EQ(run.reached[v], ball_members(g, localsim::all_edges(g), v, t))
          << "t=" << t << " v=" << v;
  }
}

TEST(TLocalBroadcast, CollectsBallOfSubgraph) {
  util::Xoshiro256 rng(5);
  const Graph g = graph::erdos_renyi_gnm(150, 900, rng);
  // Use a spanning forest as the subgraph: distances stretch, the flood
  // must follow only forest edges.
  const auto forest = graph::spanning_forest(g);
  for (unsigned t : {1u, 3u, 5u}) {
    const auto run = localsim::run_tlocal_broadcast(g, forest, t, 11);
    for (NodeId v = 0; v < g.num_nodes(); v += 13)
      EXPECT_EQ(run.reached[v], ball_members(g, forest, v, t));
  }
}

TEST(TLocalBroadcast, MessageCountBoundedByEdgesTimesRounds) {
  // Lemma 12's accounting: bundled flooding sends at most one message per
  // direction per subgraph edge per round.
  util::Xoshiro256 rng(7);
  const Graph g = graph::erdos_renyi_gnm(200, 1500, rng);
  const unsigned t = 4;
  const auto run =
      localsim::run_tlocal_broadcast(g, localsim::all_edges(g), t, 13);
  EXPECT_LE(run.stats.messages, 2ull * g.num_edges() * t);
}

TEST(TLocalBroadcast, BillEqualsSphereSums) {
  // The exact bill, from BFS alone: in logical round r < R node v sends its
  // sphere S_r(v) (the H-nodes at distance exactly r) over each of its
  // deg_H(v) H-edges, if S_r(v) is nonempty. So
  //   messages = sum_v sum_{r<R} [S_r(v) != {}] * deg_H(v),
  //   words    = sum_v sum_{r<R} |S_r(v)| * deg_H(v),
  // under any budget. No n below is a multiple of 64, so 64-origin blocks
  // straddle rows and the last block is partial.
  util::Xoshiro256 rng(41);
  const Graph er = graph::erdos_renyi_gnm(130, 700, rng);
  const Graph grid = graph::grid(3, 67);
  const Graph er200 = graph::erdos_renyi_gnm(200, 1600, rng);
  const auto bs = baseline::build_baswana_sen(er200, 2, 43);
  struct Case {
    const char* name;
    const Graph& g;
    std::vector<graph::EdgeId> edges;
  };
  const Case cases[] = {{"er130", er, localsim::all_edges(er)},
                        {"grid3x67", grid, localsim::all_edges(grid)},
                        {"bs_k2_er200", er200, bs.edges}};
  for (const Case& c : cases) {
    const graph::SubgraphView h(c.g, c.edges);
    for (unsigned rounds = 0; rounds <= 5; ++rounds) {
      std::uint64_t messages = 0;
      std::uint64_t words = 0;
      for (NodeId v = 0; v < c.g.num_nodes(); ++v) {
        const std::uint64_t deg = h.incident(v).size();
        std::vector<std::uint64_t> sphere(rounds, 0);
        for (const std::uint32_t d : h.bfs_distances_bounded(v, rounds))
          if (d < rounds) ++sphere[d];
        for (const std::uint64_t size : sphere) {
          messages += size > 0 ? deg : 0;
          words += size * deg;
        }
      }
      for (const std::uint64_t budget :
           {sim::CongestConfig::kUnlimited, std::uint64_t{1}}) {
        const auto run = localsim::run_tlocal_broadcast(
            c.g, c.edges, rounds, 47, sim::CongestConfig{budget});
        EXPECT_EQ(run.stats.messages, messages)
            << c.name << " R=" << rounds << " budget=" << budget;
        EXPECT_EQ(run.metrics.words_total, words)
            << c.name << " R=" << rounds << " budget=" << budget;
      }
    }
  }
}

TEST(TLocalBroadcast, SpannerBroadcastCoversGBall) {
  // The Lemma 12 construction: flooding radius alpha*t over an
  // alpha-spanner must cover B_G(v, t).
  util::Xoshiro256 rng(11);
  const Graph g = graph::erdos_renyi_gnm(200, 1600, rng);
  const auto cfg = core::SamplerConfig::paper_faithful(1, 2, 17);
  const auto spanner = core::build_spanner(g, cfg);
  const unsigned t = 2;
  const auto radius = static_cast<unsigned>(cfg.stretch_bound()) * t;
  const auto run = localsim::run_tlocal_broadcast(g, spanner.edges, radius, 19);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto need = ball_members(g, localsim::all_edges(g), v, t);
    const auto& have = run.reached[v];
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      EXPECT_TRUE(!need.contains(u) || have.contains(u))
          << "node " << v << " missing " << u;
  }
}

TEST(TLocalBroadcast, SpannerBroadcastCheaperThanNativeOnDenseGraphs) {
  const Graph g = graph::complete(256);
  const auto cfg = core::SamplerConfig::bench_profile(2, 3, 23);
  const auto spanner = core::build_spanner(g, cfg);
  const unsigned t = 3;
  const auto native =
      localsim::run_tlocal_broadcast(g, localsim::all_edges(g), t, 29);
  const auto radius = static_cast<unsigned>(cfg.stretch_bound()) * t;
  const auto reduced =
      localsim::run_tlocal_broadcast(g, spanner.edges, radius, 29);
  EXPECT_LT(reduced.stats.messages, native.stats.messages);
}

TEST(TLocalBroadcast, ZeroRoundsReachesOnlySelf) {
  const Graph g = graph::ring(20);
  const auto run =
      localsim::run_tlocal_broadcast(g, localsim::all_edges(g), 0, 31);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(run.reached[v].size(), 1u);
    EXPECT_TRUE(run.reached[v].contains(v));
  }
}

TEST(TLocalBroadcast, RingDistancesExact) {
  const Graph g = graph::ring(30);
  const auto run =
      localsim::run_tlocal_broadcast(g, localsim::all_edges(g), 5, 37);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(run.reached[v].size(), 11u);  // 5 left + 5 right + self
}

}  // namespace
}  // namespace fl
