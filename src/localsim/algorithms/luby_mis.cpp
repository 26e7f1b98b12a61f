#include <algorithm>
#include <cmath>

#include "localsim/algorithms.hpp"
#include "util/rng.hpp"

namespace fl::localsim {

using graph::NodeId;

namespace {

/// Per-(node, phase) priority; ties are impossible in practice (64-bit) but
/// broken by id for full determinism anyway.
std::uint64_t priority(std::uint64_t seed, NodeId v, unsigned phase) {
  return util::SplitMix64::combine(util::SplitMix64::combine(seed, v), phase);
}

// The state is the output encoding.
constexpr std::uint64_t kIn = 1;
constexpr std::uint64_t kOut = 0;

}  // namespace

unsigned LubyMis::radius(const graph::Graph& g) const {
  if (rounds_ > 0) return rounds_;
  const double n = std::max<double>(g.num_nodes(), 2);
  return 8u * static_cast<unsigned>(std::ceil(std::log2(n)));
}

std::uint64_t LubyMis::init(NodeId) const { return kUndecided; }

std::uint64_t LubyMis::step(unsigned round, NodeId v, std::uint64_t state,
                            const Neighbours& neighbours) const {
  if (state != kUndecided) return state;
  if (round % 2 == 1) {
    // Drop-out round: a neighbour that joined in the previous round
    // dominates v.
    for (const Neighbour nb : neighbours)
      if (nb.state == kIn) return kOut;
    return kUndecided;
  }
  // Join round: v joins iff it beats every undecided neighbour.
  const unsigned phase = round / 2;
  const std::uint64_t mine = priority(seed_, v, phase);
  for (const Neighbour nb : neighbours) {
    if (nb.state != kUndecided) continue;
    const std::uint64_t theirs = priority(seed_, nb.id, phase);
    if (theirs > mine || (theirs == mine && nb.id > v)) return kUndecided;
  }
  return kIn;
}

}  // namespace fl::localsim
