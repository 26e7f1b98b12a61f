#include <algorithm>
#include <cmath>
#include <vector>

#include "localsim/algorithms.hpp"
#include "util/rng.hpp"

namespace fl::localsim {

using graph::NodeId;

namespace {

/// Per-(node, round) priority; ties are impossible in practice (64-bit) but
/// broken by id for full determinism anyway.
std::uint64_t priority(std::uint64_t seed, NodeId v, unsigned round) {
  return util::SplitMix64::combine(util::SplitMix64::combine(seed, v), round);
}

enum class St : std::uint8_t { Undecided, In, Out };

}  // namespace

unsigned LubyMis::radius(const graph::Graph& g) const {
  if (rounds_ > 0) return rounds_;
  const double n = std::max<double>(g.num_nodes(), 2);
  return 4u * static_cast<unsigned>(std::ceil(std::log2(n)));
}

std::uint64_t LubyMis::compute(const BallView& ball) const {
  // Simulate Luby on the induced ball subgraph. Boundary nodes miss their
  // outside neighbours, so their states drift — but a node at distance d
  // from the center is correct for the first (radius − d) rounds, hence the
  // center is exact for all `radius` rounds (the standard LOCAL argument).
  const graph::Graph& g = *ball.g;
  const unsigned t = ball.radius;

  std::vector<NodeId> members;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    if (ball.contains(u)) members.push_back(u);

  std::vector<St> state(g.num_nodes(), St::Undecided);
  // prio[u] is valid only for the undecided members, which are the only
  // nodes the win loop compares.
  std::vector<std::uint64_t> prio(g.num_nodes());
  for (unsigned r = 0; r < t; ++r) {
    for (const NodeId u : members)
      if (state[u] == St::Undecided) prio[u] = priority(seed_, u, r);
    // Joiners: undecided nodes beating every undecided ball-neighbour.
    std::vector<NodeId> joiners;
    for (const NodeId u : members) {
      if (state[u] != St::Undecided) continue;
      const std::uint64_t mine = prio[u];
      bool wins = true;
      for (const auto& inc : g.incident(u)) {
        if (!ball.contains(inc.to) || state[inc.to] != St::Undecided)
          continue;
        const std::uint64_t theirs = prio[inc.to];
        if (theirs > mine || (theirs == mine && inc.to > u)) {
          wins = false;
          break;
        }
      }
      if (wins) joiners.push_back(u);
    }
    if (joiners.empty()) continue;
    for (const NodeId u : joiners) state[u] = St::In;
    for (const NodeId u : joiners)
      for (const auto& inc : g.incident(u))
        if (ball.contains(inc.to) && state[inc.to] == St::Undecided)
          state[inc.to] = St::Out;
  }

  switch (state[ball.center]) {
    case St::In: return 1;
    case St::Out: return 0;
    case St::Undecided: return kUndecided;
  }
  return kUndecided;
}

}  // namespace fl::localsim
