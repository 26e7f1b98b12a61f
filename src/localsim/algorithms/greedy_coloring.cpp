#include <algorithm>
#include <cmath>
#include <vector>

#include "localsim/algorithms.hpp"
#include "util/rng.hpp"

namespace fl::localsim {

using graph::NodeId;

namespace {

std::uint64_t priority(std::uint64_t seed, NodeId v, unsigned round) {
  return util::SplitMix64::combine(util::SplitMix64::combine(~seed, v),
                                   round * 2654435761u);
}

constexpr std::uint32_t kUncolored = 0xffffffffu;

}  // namespace

unsigned GreedyColoring::radius(const graph::Graph& g) const {
  if (rounds_ > 0) return rounds_;
  const double n = std::max<double>(g.num_nodes(), 2);
  return 6u * static_cast<unsigned>(std::ceil(std::log2(n)));
}

std::uint64_t GreedyColoring::compute(const BallView& ball) const {
  const graph::Graph& g = *ball.g;
  const unsigned t = ball.radius;

  std::vector<NodeId> members;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    if (ball.contains(u)) members.push_back(u);

  std::vector<std::uint32_t> color(g.num_nodes(), kUncolored);
  // prio[u] is valid only for the uncolored members, which are the only
  // nodes the win loop compares.
  std::vector<std::uint64_t> prio(g.num_nodes());
  std::vector<bool> used;
  for (unsigned r = 0; r < t; ++r) {
    for (const NodeId u : members)
      if (color[u] == kUncolored) prio[u] = priority(seed_, u, r);
    std::vector<NodeId> winners;
    for (const NodeId u : members) {
      if (color[u] != kUncolored) continue;
      const std::uint64_t mine = prio[u];
      bool wins = true;
      for (const auto& inc : g.incident(u)) {
        if (!ball.contains(inc.to) || color[inc.to] != kUncolored) continue;
        const std::uint64_t theirs = prio[inc.to];
        if (theirs > mine || (theirs == mine && inc.to > u)) {
          wins = false;
          break;
        }
      }
      if (wins) winners.push_back(u);
    }
    // Winners are an independent set among undecided nodes, so coloring
    // them simultaneously from their decided neighbourhoods is race-free.
    for (const NodeId u : winners) {
      used.assign(g.degree(u) + 2, false);
      for (const auto& inc : g.incident(u)) {
        if (!ball.contains(inc.to)) continue;
        const std::uint32_t c = color[inc.to];
        if (c != kUncolored && c < used.size()) used[c] = true;
      }
      std::uint32_t c = 0;
      while (used[c]) ++c;
      color[u] = c;
    }
  }
  return color[ball.center] == kUncolored
             ? 0
             : static_cast<std::uint64_t>(color[ball.center]) + 1;
}

}  // namespace fl::localsim
