// Concrete t-round LOCAL algorithms used as message-reduction payloads.
//
// These are the workloads the paper's introduction motivates: classic
// symmetry-breaking and aggregation tasks whose native executions cost
// Θ(t·m) messages. Each is a one-hop round rule (see local_algorithm.hpp),
// and t counts LOCAL rounds. Randomized ones key their coins on (seed, node
// or edge, round) so every node can draw its neighbours' coins.
#pragma once

#include <algorithm>
#include <cstdint>

#include "localsim/local_algorithm.hpp"

namespace fl::localsim {

/// Luby's randomized MIS, truncated at `rounds` LOCAL rounds (default
/// 0 = 8·ceil(log2 n), i.e. 4·ceil(log2 n) phases, after which unfinished
/// nodes are whp absent). A phase takes two rounds: in the first, every
/// undecided node whose coin beats all its undecided neighbours' joins;
/// in the second, every undecided neighbour of a joiner drops out. Output:
/// 1 in MIS, 0 out (dominated), 2 still undecided.
class LubyMis final : public LocalAlgorithm {
 public:
  explicit LubyMis(std::uint64_t seed, unsigned rounds = 0)
      : seed_(seed), rounds_(rounds) {}
  std::string name() const override { return "luby_mis"; }
  unsigned radius(const graph::Graph& g) const override;
  std::uint64_t init(graph::NodeId v) const override;
  std::uint64_t step(unsigned round, graph::NodeId v, std::uint64_t state,
                     const Neighbours& neighbours) const override;

  static constexpr std::uint64_t kUndecided = 2;

 private:
  std::uint64_t seed_;
  unsigned rounds_;
};

/// Randomized greedy coloring, truncated at `rounds` LOCAL rounds (default
/// 0 = 6·ceil(log2 n)): each round, every undecided node that holds the max
/// priority among undecided neighbours takes the smallest color unused by
/// its decided neighbours. Output: color + 1, or 0 if still undecided
/// after the budget.
class GreedyColoring final : public LocalAlgorithm {
 public:
  explicit GreedyColoring(std::uint64_t seed, unsigned rounds = 0)
      : seed_(seed), rounds_(rounds) {}
  std::string name() const override { return "greedy_coloring"; }
  unsigned radius(const graph::Graph& g) const override;
  std::uint64_t init(graph::NodeId v) const override;
  std::uint64_t step(unsigned round, graph::NodeId v, std::uint64_t state,
                     const Neighbours& neighbours) const override;

 private:
  std::uint64_t seed_;
  unsigned rounds_;
};

/// Truncated BFS layering in t rounds: output = min distance to a source
/// node (ids divisible by `modulus`), capped at t+1 when no source is
/// within reach. The state is the distance to the nearest source seen.
class BfsLayers final : public LocalAlgorithm {
 public:
  explicit BfsLayers(unsigned t, graph::NodeId modulus = 17)
      : t_(t), modulus_(modulus) {}
  std::string name() const override { return "bfs_layers"; }
  unsigned radius(const graph::Graph&) const override { return t_; }
  std::uint64_t init(graph::NodeId v) const override {
    return v % modulus_ == 0 ? 0 : static_cast<std::uint64_t>(t_) + 1;
  }
  std::uint64_t step(unsigned, graph::NodeId, std::uint64_t state,
                     const Neighbours& neighbours) const override {
    for (const Neighbour nb : neighbours)
      state = std::min(state, nb.state + 1);
    return state;
  }

 private:
  unsigned t_;
  graph::NodeId modulus_;
};

/// t-round leader election: output = max node id within distance t.
class LeaderElection final : public LocalAlgorithm {
 public:
  explicit LeaderElection(unsigned t) : t_(t) {}
  std::string name() const override { return "leader_election"; }
  unsigned radius(const graph::Graph&) const override { return t_; }
  std::uint64_t init(graph::NodeId v) const override { return v; }
  std::uint64_t step(unsigned, graph::NodeId, std::uint64_t state,
                     const Neighbours& neighbours) const override {
    for (const Neighbour nb : neighbours) state = std::max(state, nb.state);
    return state;
  }

 private:
  unsigned t_;
};

/// t-round local-minimum detection: output = 1 iff the node's id is
/// strictly smaller than every other id within distance t. The state is
/// the smallest id seen.
class LocalMin final : public LocalAlgorithm {
 public:
  explicit LocalMin(unsigned t) : t_(t) {}
  std::string name() const override { return "local_min"; }
  unsigned radius(const graph::Graph&) const override { return t_; }
  std::uint64_t init(graph::NodeId v) const override { return v; }
  std::uint64_t step(unsigned, graph::NodeId, std::uint64_t state,
                     const Neighbours& neighbours) const override {
    for (const Neighbour nb : neighbours) state = std::min(state, nb.state);
    return state;
  }
  std::uint64_t output(graph::NodeId v, std::uint64_t state) const override {
    return state == v ? 1 : 0;
  }

 private:
  unsigned t_;
};

/// Randomized greedy maximal matching (Israeli–Itai style), truncated at
/// `rounds` LOCAL rounds (default 0 = 8·ceil(log2 n), i.e. 4·ceil(log2 n)
/// phases). A phase takes two rounds: in the first, every unmatched node
/// proposes along its live edge (both endpoints unmatched) with the
/// largest random priority; in the second, every edge proposed from both
/// ends joins the matching. Output: matched partner id + 1, or 0 if
/// unmatched.
class MaximalMatching final : public LocalAlgorithm {
 public:
  explicit MaximalMatching(std::uint64_t seed, unsigned rounds = 0)
      : seed_(seed), rounds_(rounds) {}
  std::string name() const override { return "maximal_matching"; }
  unsigned radius(const graph::Graph& g) const override;
  std::uint64_t init(graph::NodeId v) const override;
  std::uint64_t step(unsigned round, graph::NodeId v, std::uint64_t state,
                     const Neighbours& neighbours) const override;
  std::uint64_t output(graph::NodeId v, std::uint64_t state) const override;

 private:
  std::uint64_t seed_;
  unsigned rounds_;
};

}  // namespace fl::localsim
