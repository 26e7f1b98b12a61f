// The t-round LOCAL algorithm abstraction used by the message-reduction
// scheme (paper Section 6).
//
// In the LOCAL model the output of a t-round algorithm at node v is a
// function of v's radius-t ball: the IDs, initial states and incident edge
// sets of all nodes within distance t (the paper's B_{G,t}(v)). We
// therefore represent an algorithm by that function directly:
//
//     output(v) = compute(ball of radius t around v)
//
// Native execution evaluates it per node (the reference semantics and also
// the local computation every simulation variant ends with); the metered
// executions differ only in *how the ball's information reaches v*:
//   * run_native() (transformer.hpp): t rounds of bundled flooding over G —
//     Θ(t·m) messages, the behaviour the paper improves on;
//   * transformer.hpp: Sampler spanner + αt-radius flooding over H —
//     Õ(t·n^{1+ε}) messages (Theorem 3).
//
// Randomized LOCAL algorithms fit by keying their coins on (seed, node,
// round): the coins become part of each node's initial state, so outputs
// remain ball-computable and the native/simulated equality is exact.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace fl::localsim {

/// The radius-t ball of `center`, as collected by a t-local broadcast.
struct BallView {
  const graph::Graph* g = nullptr;
  graph::NodeId center = graph::kInvalidNode;
  unsigned radius = 0;
  /// dist[u] = dist_G(center, u) for u in the ball, kUnreachable outside.
  /// An algorithm must only read nodes/edges whose endpoints are both in
  /// the ball — the harness verifies collected coverage, not the reads.
  std::vector<std::uint32_t> dist;

  bool contains(graph::NodeId u) const {
    return dist[u] != std::numeric_limits<std::uint32_t>::max();
  }
};

/// A t-round LOCAL algorithm with per-node word outputs.
class LocalAlgorithm {
 public:
  virtual ~LocalAlgorithm() = default;

  virtual std::string name() const = 0;

  /// The round complexity t on graph `g` (may depend on n).
  virtual unsigned radius(const graph::Graph& g) const = 0;

  /// The output of ball.center given exactly its radius-t ball. Must be
  /// reentrant: ball evaluation runs on the execution lanes, which call
  /// compute() on one algorithm object concurrently for different balls.
  virtual std::uint64_t compute(const BallView& ball) const = 0;
};

/// Reference semantics: evaluate compute() on the true ball of every node
/// (no messages, no metering). All execution paths must agree with this.
std::vector<std::uint64_t> run_reference(const graph::Graph& g,
                                         const LocalAlgorithm& alg);

/// Build the BallView of one node (exposed for algorithm unit tests).
BallView make_ball(const graph::Graph& g, graph::NodeId center,
                   unsigned radius);

}  // namespace fl::localsim
