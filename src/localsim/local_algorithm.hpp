// The t-round LOCAL algorithm abstraction used by the message-reduction
// scheme (paper Section 6).
//
// An algorithm is a one-hop synchronous round rule: every node starts in
// init(v), and in each round r = 0..t-1 replaces its state by
//
//     step(r, v, own previous state, neighbours' previous states)
//
// until output(v, state) reads the result. A state is one word. The rule
// sees no graph: only v's id, the id and edge id of each neighbour and the
// neighbour's state after the previous round. So after t rounds v's output
// is fixed by its radius-t ball B_G(v, t) (the locality argument of
// Linial, SICOMP 1992) by construction, not by each algorithm's care.
//
// run_reference() runs the rule over all of G: the reference semantics.
// The metered executions (transformer.hpp) differ only in how the ball's
// information reaches v, then run the same rule on v's collected ball:
//   * run_native(): t rounds of bundled flooding over G — Θ(t·m)
//     messages, the behaviour the paper improves on;
//   * run_simulated(): Sampler spanner + αt-radius flooding over H —
//     Õ(t·n^{1+ε}) messages (Theorem 3).
//
// Randomized LOCAL algorithms fit by keying their coins on (seed, node or
// edge, round), so every node can draw a neighbour's coin from its id and
// outputs stay deterministic.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace fl::localsim {

/// One neighbour of the node being stepped, as its round rule sees it.
struct Neighbour {
  graph::NodeId id;
  graph::EdgeId edge;     ///< the edge joining it to the stepped node
  std::uint64_t state;    ///< its state after the previous round
};

/// The neighbours of one node inside the evaluated set, each with its
/// previous-round state: a lazy view over the node's incidence list that
/// skips the neighbours outside `in_set`, a bitset over node ids (bit
/// u % 64 of in_set[u / 64]); a null `in_set` keeps every neighbour. It
/// may be iterated more than once.
struct Neighbours {
  std::span<const graph::Incidence> incident;
  const std::uint64_t* states;  ///< indexed by node id
  const std::uint64_t* in_set;

  class iterator {
   public:
    iterator(const Neighbours* r, const graph::Incidence* p) : r_(r), p_(p) {
      skip();
    }
    Neighbour operator*() const {
      return {p_->to, p_->edge, r_->states[p_->to]};
    }
    iterator& operator++() {
      ++p_;
      skip();
      return *this;
    }
    bool operator==(const iterator& o) const { return p_ == o.p_; }

   private:
    void skip() {
      while (r_->in_set != nullptr && p_ != r_->last() &&
             ((r_->in_set[p_->to / 64] >> (p_->to % 64)) & 1) == 0)
        ++p_;
    }
    const Neighbours* r_;
    const graph::Incidence* p_;
  };

  const graph::Incidence* last() const {
    return incident.data() + incident.size();
  }
  iterator begin() const { return {this, incident.data()}; }
  iterator end() const { return {this, last()}; }
};

/// A t-round LOCAL algorithm with per-node word outputs. All three rule
/// methods must be reentrant: ball evaluation runs on the execution lanes,
/// which call them on one algorithm object concurrently.
class LocalAlgorithm {
 public:
  virtual ~LocalAlgorithm() = default;

  virtual std::string name() const = 0;

  /// The round count t on graph `g` (may depend on n).
  virtual unsigned radius(const graph::Graph& g) const = 0;

  /// v's state before round 0.
  virtual std::uint64_t init(graph::NodeId v) const = 0;

  /// v's state after round `round`, from its own and its neighbours'
  /// states after the previous one.
  virtual std::uint64_t step(unsigned round, graph::NodeId v,
                             std::uint64_t state,
                             const Neighbours& neighbours) const = 0;

  /// v's output from its state after the last round (by default the
  /// state itself).
  virtual std::uint64_t output(graph::NodeId, std::uint64_t state) const {
    return state;
  }
};

/// Reference semantics: radius(g) rounds of the rule over all of G, in
/// O(t·m) (no messages, no metering). All execution paths must agree with
/// this.
std::vector<std::uint64_t> run_reference(const graph::Graph& g,
                                         const LocalAlgorithm& alg);

}  // namespace fl::localsim
