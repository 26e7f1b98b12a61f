#include "localsim/transformer.hpp"

#include <algorithm>
#include <cmath>

#include "core/distributed_sampler.hpp"
#include "graph/algorithms.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "sim/exec.hpp"
#include "util/assert.hpp"

namespace fl::localsim {

using graph::Graph;
using graph::kUnreachable;
using graph::NodeId;

namespace {

/// BFS from `center` bounded at `radius`, restricted to nodes whose mask
/// epoch matches — i.e. the subgraph induced by the collected origin set.
/// When the collected set covers B_G(center, radius) this equals the true
/// ball (shortest paths of length <= radius stay inside the ball); when
/// coverage is violated the computed outputs may differ from the reference,
/// which is exactly how a broken spanner manifests and what tests detect.
std::vector<std::uint32_t> restricted_bfs(const Graph& g, NodeId center,
                                          unsigned radius,
                                          const std::vector<unsigned>& mask,
                                          unsigned epoch) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  if (mask[center] != epoch) return dist;
  std::vector<NodeId> frontier{center};
  dist[center] = 0;
  std::vector<NodeId> next;
  for (unsigned d = 0; d < radius && !frontier.empty(); ++d) {
    next.clear();
    for (const NodeId v : frontier) {
      for (const auto& inc : g.incident(v)) {
        if (mask[inc.to] != epoch || dist[inc.to] != kUnreachable) continue;
        dist[inc.to] = d + 1;
        next.push_back(inc.to);
      }
    }
    frontier.swap(next);
  }
  return dist;
}

/// Evaluate the algorithm at every node from its collected origin set.
/// Balls are independent, so the nodes are cut into contiguous shards, one
/// per execution lane (FL_SIM_THREADS, as for the broadcast's Network),
/// weighted by ball size. Each lane keeps its own epoch mask and writes
/// out[v] only for the nodes it owns, so outputs do not depend on the lane
/// count.
std::vector<std::uint64_t> evaluate_from_collections(
    const Graph& g, const LocalAlgorithm& alg, unsigned t,
    const std::vector<std::vector<NodeId>>& reached) {
  const NodeId n = g.num_nodes();
  std::vector<std::uint64_t> out(n);
  std::vector<std::uint64_t> weights(n);
  for (NodeId v = 0; v < n; ++v) weights[v] = reached[v].size() + 1;
  const auto shards =
      sim::partition_nodes(n, sim::default_parallel_config(), weights);
  sim::ExecPool pool(static_cast<unsigned>(shards.size()));
  pool.run([&](unsigned lane) {
    const sim::ShardRange range = shards[lane];
    std::vector<unsigned> mask(n, 0);
    for (NodeId v = range.begin; v < range.end; ++v) {
      const unsigned epoch = v + 1;
      for (const NodeId u : reached[v]) mask[u] = epoch;
      BallView ball;
      ball.g = &g;
      ball.center = v;
      ball.radius = t;
      ball.dist = restricted_bfs(g, v, t, mask, epoch);
      out[v] = alg.compute(ball);
    }
  });
  return out;
}

}  // namespace

ExecutionReport run_native(const Graph& g, const LocalAlgorithm& alg,
                           std::uint64_t seed,
                           sim::CongestConfig congest) {
  // G is its own 1-spanner: radius ceil(1.0 * t) = t.
  return run_over_spanner(g, alg, all_edges(g), 1.0, seed, congest);
}

ExecutionReport run_over_spanner(const Graph& g, const LocalAlgorithm& alg,
                                 const std::vector<graph::EdgeId>& spanner,
                                 double alpha, std::uint64_t seed,
                                 sim::CongestConfig congest) {
  FL_REQUIRE(alpha >= 1.0, "stretch must be >= 1");
  const unsigned t = alg.radius(g);
  const auto radius = static_cast<unsigned>(
      std::ceil(alpha * static_cast<double>(t)));
  const auto broadcast = run_tlocal_broadcast(g, spanner, radius, seed, congest);
  ExecutionReport rep;
  rep.outputs = evaluate_from_collections(g, alg, t, broadcast.reached);
  rep.rounds = broadcast.stats.rounds;
  rep.messages = broadcast.stats.messages;
  rep.deferrals = broadcast.metrics.deferrals_total;
  rep.broadcast_messages = broadcast.stats.messages;
  rep.broadcast_rounds = broadcast.stats.rounds;
  rep.spanner_edges = spanner.size();
  rep.alpha = alpha;
  return rep;
}

ExecutionReport run_simulated(const Graph& g, const LocalAlgorithm& alg,
                              const core::SamplerConfig& sampler,
                              sim::CongestConfig congest) {
  const auto spanner_run = core::run_distributed_sampler(g, sampler);
  ExecutionReport rep = run_over_spanner(
      g, alg, spanner_run.edges, spanner_run.stretch_bound, sampler.seed,
      congest);
  rep.spanner_messages = spanner_run.stats.messages;
  rep.spanner_rounds = spanner_run.stats.rounds;
  rep.rounds += spanner_run.stats.rounds;
  rep.messages += spanner_run.stats.messages;
  return rep;
}

}  // namespace fl::localsim
