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

// The state is the output encoding: 0 while uncolored, color + 1 after.
constexpr std::uint64_t kUncolored = 0;

}  // namespace

unsigned GreedyColoring::radius(const graph::Graph& g) const {
  if (rounds_ > 0) return rounds_;
  const double n = std::max<double>(g.num_nodes(), 2);
  return 6u * static_cast<unsigned>(std::ceil(std::log2(n)));
}

std::uint64_t GreedyColoring::init(NodeId) const { return kUncolored; }

std::uint64_t GreedyColoring::step(unsigned round, NodeId v,
                                   std::uint64_t state,
                                   const Neighbours& neighbours) const {
  if (state != kUncolored) return state;
  const std::uint64_t mine = priority(seed_, v, round);
  std::size_t colored = 0;
  for (const Neighbour nb : neighbours) {
    if (nb.state != kUncolored) {
      ++colored;
      continue;
    }
    const std::uint64_t theirs = priority(seed_, nb.id, round);
    if (theirs > mine || (theirs == mine && nb.id > v)) return kUncolored;
  }
  // Winners are an independent set among undecided nodes, so coloring
  // them simultaneously from their decided neighbourhoods is race-free.
  // The smallest free color is at most the number of colored neighbours.
  std::vector<bool> used(colored + 1, false);
  for (const Neighbour nb : neighbours)
    if (nb.state != kUncolored && nb.state - 1 < used.size())
      used[nb.state - 1] = true;
  std::uint64_t c = 0;
  while (used[c]) ++c;
  return c + 1;
}

}  // namespace fl::localsim
