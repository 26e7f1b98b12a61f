#include "localsim/transformer.hpp"

#include <algorithm>
#include <cmath>

#include "core/distributed_sampler.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "sim/exec.hpp"
#include "util/assert.hpp"

namespace fl::localsim {

using graph::Graph;
using graph::NodeId;

namespace {

/// Evaluate the algorithm at every node from its collected origin set (the
/// broadcast's own bitset): run the round rule on the subgraph induced by
/// reached[v], testing membership on the bitset itself. When the set
/// covers B_G(v, t) this is v's true t-round output (paths of length <= t
/// from v stay inside the ball); when coverage is violated the output may
/// differ from the reference, which is exactly how a broken spanner
/// manifests and what tests detect.
///
/// Round r steps only the nodes within t-1-r hops of v: nothing farther
/// out reaches v in the t-1-r rounds left. A BFS inside reached[v] places
/// those nodes layer by layer, to depth t-1 only, and stops once every
/// reached node is placed. A stepped node's reached neighbours lie within
/// t hops, so in round r each was stepped in round r-1 (or holds its init
/// state, in round 0), and the rule reads no state it was not given.
///
/// Balls are independent, so the nodes are cut into contiguous shards, one
/// per execution lane (FL_SIM_THREADS, as for the broadcast's Network),
/// weighted by ball size. Each lane reuses its placed mask, layer list and
/// state arrays across its nodes and writes out[v] only for the nodes it
/// owns, so outputs do not depend on the lane count.
std::vector<std::uint64_t> evaluate_from_collections(
    const Graph& g, const LocalAlgorithm& alg, unsigned t,
    const std::vector<OriginSet>& reached) {
  const NodeId n = g.num_nodes();
  std::vector<std::uint64_t> out(n), init(n);
  std::vector<std::uint64_t> weights(n);
  for (NodeId v = 0; v < n; ++v) {
    init[v] = alg.init(v);
    weights[v] = reached[v].size() + 1;
  }
  const auto shards =
      sim::partition_nodes(n, sim::default_parallel_config(), weights);
  sim::ExecPool pool(static_cast<unsigned>(shards.size()));
  pool.run([&](unsigned lane) {
    const sim::ShardRange range = shards[lane];
    // placed[u] == v + 1 iff the BFS from v placed u. A stepped node
    // writes states[r % 2] in round r and reads the previous round's
    // array (init in round 0).
    std::vector<std::uint32_t> placed(n, 0);
    std::vector<std::uint64_t> states[2] = {std::vector<std::uint64_t>(n),
                                            std::vector<std::uint64_t>(n)};
    std::vector<NodeId> order;           // placed nodes, layer by layer
    std::vector<std::size_t> layer_end;  // order[0, layer_end[d]): depth <= d
    for (NodeId v = range.begin; v < range.end; ++v) {
      const OriginSet& ball = reached[v];
      const std::uint32_t epoch = v + 1;
      order.assign(1, v);
      placed[v] = epoch;
      layer_end.clear();
      for (std::size_t head = 0;
           layer_end.size() + 1 < t && order.size() < ball.size();) {
        const std::size_t tail = order.size();
        for (; head < tail; ++head)
          for (const auto& inc : g.incident(order[head]))
            if (ball.contains(inc.to) && placed[inc.to] != epoch) {
              placed[inc.to] = epoch;
              order.push_back(inc.to);
            }
        layer_end.push_back(tail);
      }
      layer_end.resize(t, order.size());
      // A ball that holds every node needs no filter; skipping it halves
      // the neighbour scans on dense graphs, whose balls are whole.
      const std::uint64_t* in_set =
          ball.size() == n ? nullptr : ball.words.data();
      const std::uint64_t* prev = init.data();
      for (unsigned r = 0; r < t; ++r) {
        std::uint64_t* cur = states[r % 2].data();
        for (std::size_t i = 0; i < layer_end[t - 1 - r]; ++i) {
          const NodeId u = order[i];
          cur[u] = alg.step(r, u, prev[u],
                            Neighbours{g.incident(u), prev, in_set});
        }
        prev = cur;
      }
      out[v] = alg.output(v, prev[v]);
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
