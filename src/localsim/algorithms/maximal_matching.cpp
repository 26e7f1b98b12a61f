#include <algorithm>
#include <cmath>

#include "localsim/algorithms.hpp"
#include "util/rng.hpp"

namespace fl::localsim {

using graph::EdgeId;
using graph::NodeId;

namespace {

/// Per-(edge, phase) priority; deterministic function of the seed, so both
/// endpoints of an edge draw the same coin (edge ids are known to both
/// endpoints — exactly the paper's model assumption).
std::uint64_t priority(std::uint64_t seed, EdgeId e, unsigned phase) {
  return util::SplitMix64::combine(
      util::SplitMix64::combine(seed ^ 0xabcdef12345ULL, e), phase);
}

// The state is 0 while unmatched and not proposing, kProposing | e while
// proposing along edge e, and kMatched | partner once matched.
constexpr std::uint64_t kMatched = 1ULL << 63;
constexpr std::uint64_t kProposing = 1ULL << 62;
constexpr std::uint64_t kIdMask = 0xffffffffULL;

}  // namespace

unsigned MaximalMatching::radius(const graph::Graph& g) const {
  if (rounds_ > 0) return rounds_;
  const double n = std::max<double>(g.num_nodes(), 2);
  return 8u * static_cast<unsigned>(std::ceil(std::log2(n)));
}

std::uint64_t MaximalMatching::init(NodeId) const { return 0; }

std::uint64_t MaximalMatching::step(unsigned round, NodeId,
                                    std::uint64_t state,
                                    const Neighbours& neighbours) const {
  if (state & kMatched) return state;
  if (round % 2 == 1) {
    // Match round: an edge proposed from both ends joins the matching. A
    // neighbour in v's state proposes along v's edge, so it is the other
    // end; each node proposes along one edge, so matches are disjoint.
    if (state == 0) return 0;
    for (const Neighbour nb : neighbours)
      if (nb.state == state) return kMatched | nb.id;
    return 0;
  }
  // Propose round: along the live edge with the largest (priority, id).
  const unsigned phase = round / 2;
  EdgeId best = graph::kInvalidEdge;
  std::uint64_t best_prio = 0;
  for (const Neighbour nb : neighbours) {
    if (nb.state & kMatched) continue;
    const std::uint64_t p = priority(seed_, nb.edge, phase);
    if (best == graph::kInvalidEdge || p > best_prio ||
        (p == best_prio && nb.edge > best)) {
      best = nb.edge;
      best_prio = p;
    }
  }
  return best == graph::kInvalidEdge ? 0 : kProposing | best;
}

std::uint64_t MaximalMatching::output(NodeId, std::uint64_t state) const {
  return state & kMatched ? (state & kIdMask) + 1 : 0;
}

}  // namespace fl::localsim
