// Unit tests for the concrete LOCAL payload algorithms.
#include <gtest/gtest.h>

#include <set>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "localsim/algorithms.hpp"
#include "util/rng.hpp"

namespace fl {
namespace {

using graph::Graph;
using graph::NodeId;

TEST(LubyMis, OutputsFormIndependentSet) {
  util::Xoshiro256 rng(3);
  const Graph g = graph::erdos_renyi_gnm(200, 1200, rng);
  const localsim::LubyMis alg(7);
  const auto out = localsim::run_reference(g, alg);
  for (const auto& e : g.edges())
    EXPECT_FALSE(out[e.u] == 1 && out[e.v] == 1)
        << "adjacent MIS members " << e.u << "," << e.v;
}

TEST(LubyMis, ConvergesToMaximalSetWithFullBudget) {
  util::Xoshiro256 rng(5);
  const Graph g = graph::erdos_renyi_gnm(150, 700, rng);
  const localsim::LubyMis alg(11);  // 4 log n rounds
  const auto out = localsim::run_reference(g, alg);
  std::size_t undecided = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (out[v] == localsim::LubyMis::kUndecided) ++undecided;
    if (out[v] == 0) {
      // Every dominated node must have an MIS neighbour.
      bool covered = false;
      for (const auto& inc : g.incident(v))
        if (out[inc.to] == 1) covered = true;
      EXPECT_TRUE(covered) << "node " << v << " dominated by nobody";
    }
  }
  EXPECT_EQ(undecided, 0u);
}

TEST(LubyMis, TruncationLeavesOnlyUndecided) {
  // With a 1-round budget the set must still be independent; nodes may be
  // undecided but never inconsistently decided.
  util::Xoshiro256 rng(7);
  const Graph g = graph::erdos_renyi_gnm(100, 600, rng);
  const localsim::LubyMis alg(13, 1);
  const auto out = localsim::run_reference(g, alg);
  for (const auto& e : g.edges())
    EXPECT_FALSE(out[e.u] == 1 && out[e.v] == 1);
}

TEST(GreedyColoring, ProperColoring) {
  util::Xoshiro256 rng(11);
  const Graph g = graph::erdos_renyi_gnm(200, 1400, rng);
  const localsim::GreedyColoring alg(17);
  const auto out = localsim::run_reference(g, alg);
  for (const auto& e : g.edges()) {
    if (out[e.u] == 0 || out[e.v] == 0) continue;  // undecided
    EXPECT_NE(out[e.u], out[e.v]) << "edge " << e.u << "-" << e.v;
  }
}

TEST(GreedyColoring, FullBudgetColorsEverything) {
  util::Xoshiro256 rng(13);
  const Graph g = graph::erdos_renyi_gnm(120, 500, rng);
  const localsim::GreedyColoring alg(19);
  const auto out = localsim::run_reference(g, alg);
  std::size_t uncolored = 0;
  std::uint64_t max_color = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (out[v] == 0) ++uncolored;
    max_color = std::max(max_color, out[v]);
  }
  EXPECT_EQ(uncolored, 0u);
  // Greedy never exceeds Δ+1 colors (+1 for our 1-based encoding).
  NodeId max_deg = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    max_deg = std::max(max_deg, g.degree(v));
  EXPECT_LE(max_color, static_cast<std::uint64_t>(max_deg) + 2);
}

TEST(BfsLayers, DistancesMatchBfs) {
  util::Xoshiro256 rng(17);
  const Graph g = graph::erdos_renyi_gnm(150, 600, rng);
  const unsigned t = 4;
  const localsim::BfsLayers alg(t, 17);
  const auto out = localsim::run_reference(g, alg);
  // Brute force: multi-source BFS from all nodes with id % 17 == 0.
  std::vector<std::uint32_t> best(g.num_nodes(), t + 1);
  for (NodeId s = 0; s < g.num_nodes(); s += 17) {
    const auto dist = graph::bfs_distances_bounded(g, s, t);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      if (dist[v] != graph::kUnreachable)
        best[v] = std::min(best[v], dist[v]);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(out[v], best[v]) << "node " << v;
}

TEST(LeaderElection, MaxIdWithinBall) {
  const Graph g = graph::ring(24);
  const localsim::LeaderElection alg(3);
  const auto out = localsim::run_reference(g, alg);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    NodeId expect = v;
    for (int d = -3; d <= 3; ++d) {
      const NodeId u = static_cast<NodeId>((v + 24 + d) % 24);
      expect = std::max(expect, u);
    }
    EXPECT_EQ(out[v], expect);
  }
}

TEST(LeaderElection, GlobalLeaderOnSmallDiameter) {
  const Graph g = graph::complete(50);
  const localsim::LeaderElection alg(1);
  const auto out = localsim::run_reference(g, alg);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(out[v], 49u);
}

TEST(LocalMin, ExactlyTheLocalMinima) {
  const Graph g = graph::path(10);
  const localsim::LocalMin alg(2);
  const auto out = localsim::run_reference(g, alg);
  // On a path 0-1-...-9 with radius 2, node v is a local min iff its id is
  // smaller than ids within 2 hops; ids increase along the path, so only
  // node 0 qualifies.
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(out[v], v == 0 ? 1u : 0u) << "node " << v;
}

TEST(LocalMin, AtLeastOneMinimumExists) {
  util::Xoshiro256 rng(23);
  const Graph g = graph::erdos_renyi_gnm(100, 300, rng);
  const localsim::LocalMin alg(1);
  const auto out = localsim::run_reference(g, alg);
  std::size_t minima = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) minima += out[v];
  EXPECT_GE(minima, 1u);  // node 0 is always a local minimum
}

// ---------------------------------------------- independent phase oracles
//
// Global Luby and maximal matching in their original phase form, where a
// phase is one synchronous step over all of G that reads two hops (a node
// joins and its neighbours drop out, or an edge wins and both ends match).
// They share no code with the round rules; only the coin formulas are the
// algorithms' specification. A rule's 2p LOCAL rounds must equal p phases.

std::uint64_t luby_coin(std::uint64_t seed, NodeId v, unsigned phase) {
  return util::SplitMix64::combine(util::SplitMix64::combine(seed, v), phase);
}

std::vector<std::uint64_t> luby_phase_oracle(const Graph& g,
                                             std::uint64_t seed,
                                             unsigned phases) {
  constexpr std::uint64_t kOut = 0, kIn = 1, kUndecided = 2;
  std::vector<std::uint64_t> st(g.num_nodes(), kUndecided);
  for (unsigned p = 0; p < phases; ++p) {
    std::vector<NodeId> joiners;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (st[v] != kUndecided) continue;
      bool wins = true;
      for (const auto& inc : g.incident(v)) {
        const NodeId w = inc.to;
        if (st[w] != kUndecided) continue;
        const auto cv = luby_coin(seed, v, p), cw = luby_coin(seed, w, p);
        if (cw > cv || (cw == cv && w > v)) wins = false;
      }
      if (wins) joiners.push_back(v);
    }
    for (const NodeId v : joiners) st[v] = kIn;
    for (const NodeId v : joiners)
      for (const auto& inc : g.incident(v))
        if (st[inc.to] == kUndecided) st[inc.to] = kOut;
  }
  return st;
}

std::uint64_t matching_coin(std::uint64_t seed, graph::EdgeId e,
                            unsigned phase) {
  return util::SplitMix64::combine(
      util::SplitMix64::combine(seed ^ 0xabcdef12345ULL, e), phase);
}

std::vector<std::uint64_t> matching_phase_oracle(const Graph& g,
                                                 std::uint64_t seed,
                                                 unsigned phases) {
  std::vector<NodeId> partner(g.num_nodes(), graph::kInvalidNode);
  auto free = [&](NodeId v) { return partner[v] == graph::kInvalidNode; };
  for (unsigned p = 0; p < phases; ++p) {
    // The phase's winners: live edges (both ends free) whose (coin, id)
    // beats every other live edge at both ends.
    auto beats = [&](graph::EdgeId a, graph::EdgeId b) {
      const auto ca = matching_coin(seed, a, p), cb = matching_coin(seed, b, p);
      return ca > cb || (ca == cb && a > b);
    };
    std::vector<graph::EdgeId> winners;
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.endpoints(e);
      if (!free(u) || !free(v)) continue;
      bool wins = true;
      for (const NodeId end : {u, v})
        for (const auto& inc : g.incident(end))
          if (inc.edge != e && free(inc.to) && beats(inc.edge, e))
            wins = false;
      if (wins) winners.push_back(e);
    }
    for (const graph::EdgeId e : winners) {
      const auto [u, v] = g.endpoints(e);
      partner[u] = v;
      partner[v] = u;
    }
  }
  std::vector<std::uint64_t> out(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (!free(v)) out[v] = static_cast<std::uint64_t>(partner[v]) + 1;
  return out;
}

std::vector<Graph> oracle_graphs() {
  util::Xoshiro256 rng(3);
  std::vector<Graph> out;
  out.push_back(graph::erdos_renyi_gnm(600, 1800, rng));
  out.push_back(graph::grid(32, 32));
  return out;
}

TEST(LubyMis, TwoRoundsPerPhaseMatchPhaseOracle) {
  for (const Graph& g : oracle_graphs())
    for (unsigned p = 1; p <= 3; ++p)
      EXPECT_EQ(localsim::run_reference(g, localsim::LubyMis(11, 2 * p)),
                luby_phase_oracle(g, 11, p))
          << g.summary() << " phases=" << p;
}

TEST(MaximalMatching, TwoRoundsPerPhaseMatchPhaseOracle) {
  for (const Graph& g : oracle_graphs())
    for (unsigned p = 1; p <= 3; ++p)
      EXPECT_EQ(
          localsim::run_reference(g, localsim::MaximalMatching(11, 2 * p)),
          matching_phase_oracle(g, 11, p))
          << g.summary() << " phases=" << p;
}

}  // namespace
}  // namespace fl
