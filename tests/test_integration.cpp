// End-to-end integration tests across modules: the full message-reduction
// pipeline, the two-stage scheme of Section 6, and cross-baseline plumbing.
#include <gtest/gtest.h>

#include "baseline/baswana_sen.hpp"
#include "baseline/nearly_additive.hpp"
#include "baseline/topology_collect.hpp"
#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "core/sampler.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/spanner_check.hpp"
#include "localsim/algorithms.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "localsim/transformer.hpp"
#include "util/rng.hpp"

namespace fl {
namespace {

using core::SamplerConfig;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

TEST(Integration, FullPipelineDistributedSpannerThenPayloads) {
  // Distributed Sampler -> t-local broadcast over H -> local evaluation,
  // compared against reference semantics, across families.
  const auto cfg = SamplerConfig::paper_faithful(1, 2, 3);
  util::Xoshiro256 rng(5);
  for (const Graph& g : {graph::erdos_renyi_gnm(140, 900, rng),
                         graph::grid(12, 12), graph::hypercube(7)}) {
    const auto spanner = core::run_distributed_sampler(g, cfg);
    const localsim::LubyMis mis(77, 5);
    const auto reduced = localsim::run_over_spanner(
        g, mis, spanner.edges, spanner.stretch_bound, 7);
    EXPECT_EQ(reduced.outputs, localsim::run_reference(g, mis)) << g.summary();
  }
}

TEST(Integration, TwoStageSchemeReconstructsStage2Spanner) {
  // Theorem 3 second branch: use the Sampler spanner H1 to simulate an
  // off-the-shelf LOCAL spanner algorithm (our Voronoi nearly-additive
  // stage, a (r+1)-round LOCAL algorithm), then verify that every node can
  // reconstruct its stage-2 output from the information collected over H1
  // and that the union equals the direct construction.
  util::Xoshiro256 rng(7);
  const Graph g = graph::erdos_renyi_gnm(160, 1300, rng);
  const unsigned r = 2;
  const std::uint64_t stage2_seed = 11;

  const auto cfg = SamplerConfig::paper_faithful(1, 2, 13);
  const auto h1 = core::run_distributed_sampler(g, cfg);

  // Simulating a t-round algorithm needs B_G(v, t) with t = r + 1: flood
  // over H1 with radius alpha * t.
  const auto radius = static_cast<unsigned>(h1.stretch_bound) * (r + 1);
  const auto broadcast =
      localsim::run_tlocal_broadcast(g, h1.edges, radius, 17);

  // Coverage: every node collected its whole G-ball of radius r+1.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto dist = graph::bfs_distances_bounded(g, v, r + 1);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (dist[u] == graph::kUnreachable) continue;
      EXPECT_TRUE(broadcast.reached[v].contains(u))
          << "node " << v << " missing " << u;
    }
  }

  // Each node now computes its stage-2 contribution ball-locally; the
  // union must equal the direct (centralized) stage-2 spanner.
  std::vector<bool> in_union(g.num_edges(), false);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (const EdgeId e :
         baseline::nearly_additive_local_edges(g, v, r, stage2_seed))
      in_union[e] = true;
  const auto direct = baseline::build_nearly_additive(g, r, stage2_seed);
  std::vector<EdgeId> union_edges;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (in_union[e]) union_edges.push_back(e);
  EXPECT_EQ(union_edges, direct.edges);

  // And the stage-2 spanner must itself be usable for payload delivery.
  const localsim::LeaderElection alg(2);
  const auto final_run = localsim::run_over_spanner(
      g, alg, direct.edges, direct.stretch_bound(), 19);
  EXPECT_EQ(final_run.outputs, localsim::run_reference(g, alg));
}

TEST(Integration, SamplerSpannerFeedsBaswanaSenSimulation) {
  // Mixed pipeline: broadcast over the Sampler spanner can also carry the
  // state Baswana–Sen needs (its k-round execution reads k-balls). We
  // verify ball coverage for t = k announcements.
  util::Xoshiro256 rng(23);
  const Graph g = graph::erdos_renyi_gnm(150, 1100, rng);
  const unsigned k = 3;
  const auto cfg = SamplerConfig::paper_faithful(1, 2, 29);
  const auto h1 = core::run_distributed_sampler(g, cfg);
  const auto radius = static_cast<unsigned>(h1.stretch_bound) * k;
  const auto broadcast = localsim::run_tlocal_broadcast(g, h1.edges, radius, 31);
  for (NodeId v = 0; v < g.num_nodes(); v += 7) {
    const auto dist = graph::bfs_distances_bounded(g, v, k);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (dist[u] == graph::kUnreachable) continue;
      EXPECT_TRUE(broadcast.reached[v].contains(u));
    }
  }
}

TEST(Integration, MessageOrderingAcrossStrategiesOnDenseGraph) {
  // The paper's qualitative table on K_n: topology-collection and
  // Baswana–Sen pay Ω(m); Sampler pays Õ(n^{1+δ+ε}). Verify the ordering
  // sampler < both baselines on a dense instance.
  const Graph g = graph::complete(256);
  const auto sampler =
      core::run_distributed_sampler(g, SamplerConfig::bench_profile(2, 3, 37));
  const auto bs = baseline::run_distributed_baswana_sen(g, 3, 41);
  const auto tc = baseline::run_topology_collect(g, 3, 43);
  EXPECT_LT(sampler.stats.messages, bs.stats.messages);
  EXPECT_LT(sampler.stats.messages, tc.stats.messages);
}

TEST(Integration, AllSpannersVerifyOnTheSameInstance) {
  // One instance, three construction strategies, one oracle.
  util::Xoshiro256 rng(47);
  const Graph g = graph::erdos_renyi_gnm(220, 2600, rng);

  const auto cfg = SamplerConfig::paper_faithful(2, 2, 53);
  const auto sampler = core::build_spanner(g, cfg);
  EXPECT_EQ(graph::check_spanner_exact(g, sampler.edges, cfg.stretch_bound())
                .violations,
            0u);

  const auto bs = baseline::build_baswana_sen(g, 3, 59);
  EXPECT_EQ(
      graph::check_spanner_exact(g, bs.edges, bs.stretch_bound()).violations,
      0u);

  const auto na = baseline::build_nearly_additive(g, 2, 61);
  EXPECT_EQ(
      graph::check_spanner_exact(g, na.edges, na.stretch_bound()).violations,
      0u);
}

TEST(Integration, RoundPreservationHeadline) {
  // Question 1 of the paper: simulate in O(t) rounds. For fixed gamma the
  // broadcast phase must be within the constant alpha of native t, and the
  // sampler preprocessing must not depend on t at all.
  util::Xoshiro256 rng(67);
  const Graph g = graph::erdos_renyi_gnm(200, 2000, rng);
  const auto cfg = SamplerConfig::paper_faithful(1, 2, 71);
  const localsim::BfsLayers small_t(2);
  const localsim::BfsLayers big_t(6);
  const auto run_small = localsim::run_simulated(g, small_t, cfg);
  const auto run_big = localsim::run_simulated(g, big_t, cfg);
  EXPECT_EQ(run_small.spanner_rounds, run_big.spanner_rounds);
  EXPECT_LE(run_big.broadcast_rounds,
            static_cast<std::size_t>(cfg.stretch_bound()) * 6 + 2);
}

}  // namespace
}  // namespace fl
