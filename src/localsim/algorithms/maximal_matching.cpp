#include <algorithm>
#include <cmath>
#include <vector>

#include "localsim/algorithms.hpp"
#include "util/rng.hpp"

namespace fl::localsim {

using graph::EdgeId;
using graph::NodeId;

namespace {

/// Per-(edge, round) priority; deterministic function of the seed so the
/// algorithm is a ball function (edge ids are known to both endpoints —
/// exactly the paper's model assumption).
std::uint64_t priority(std::uint64_t seed, EdgeId e, unsigned round) {
  return util::SplitMix64::combine(
      util::SplitMix64::combine(seed ^ 0xabcdef12345ULL, e), round);
}

}  // namespace

unsigned MaximalMatching::radius(const graph::Graph& g) const {
  if (rounds_ > 0) return rounds_;
  const double n = std::max<double>(g.num_nodes(), 2);
  return 4u * static_cast<unsigned>(std::ceil(std::log2(n)));
}

std::uint64_t MaximalMatching::compute(const BallView& ball) const {
  // Simulate on the induced ball subgraph; the usual LOCAL argument keeps
  // the center's state exact for all `radius` rounds.
  const graph::Graph& g = *ball.g;
  const unsigned t = ball.radius;

  std::vector<NodeId> members;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    if (ball.contains(u)) members.push_back(u);

  std::vector<NodeId> partner(g.num_nodes(), graph::kInvalidNode);
  auto live = [&](NodeId v) {
    return ball.contains(v) && partner[v] == graph::kInvalidNode;
  };
  // prio[e] is valid only for live edges (both endpoints in the ball and
  // unmatched), the only edges the win test compares. It is drawn once per
  // round, at the edge's smaller endpoint, which the ascending member walk
  // reaches first. best[u] is u's live edge with the largest (priority,
  // edge id).
  std::vector<std::uint64_t> prio(g.num_edges());
  std::vector<graph::Incidence> best(g.num_nodes());
  for (unsigned r = 0; r < t; ++r) {
    for (const NodeId u : members) {
      if (partner[u] != graph::kInvalidNode) continue;
      graph::Incidence top;
      for (const auto& inc : g.incident(u)) {
        if (!live(inc.to)) continue;
        const EdgeId e = inc.edge;
        if (inc.to >= u) prio[e] = priority(seed_, e, r);
        if (top.edge == graph::kInvalidEdge || prio[e] > prio[top.edge] ||
            (prio[e] == prio[top.edge] && e > top.edge))
          top = inc;
      }
      best[u] = top;
    }
    // An edge joins the matching iff both endpoints are unmatched and its
    // priority beats every competing live edge at both ends, i.e. it is
    // both endpoints' best. Winners are vertex-disjoint by construction.
    std::vector<std::pair<NodeId, NodeId>> winners;
    for (const NodeId u : members) {
      if (partner[u] != graph::kInvalidNode) continue;
      const auto [v, e] = best[u];
      if (e != graph::kInvalidEdge && v >= u && best[v].edge == e)
        winners.emplace_back(u, v);
    }
    for (const auto& [u, v] : winners) {
      partner[u] = v;
      partner[v] = u;
    }
  }
  return partner[ball.center] == graph::kInvalidNode
             ? 0
             : static_cast<std::uint64_t>(partner[ball.center]) + 1;
}

}  // namespace fl::localsim
