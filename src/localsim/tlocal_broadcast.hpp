// t-local broadcast (paper Section 6, Lemma 12).
//
// Task: every node v must deliver its message M_v to all nodes of
// B_{G,t}(v). Implementation: bundled flooding over a subgraph H = (V, S)
// with one forwarding rule: each round, every node groups the origins it
// learned by remaining hop budget and sends each group as ONE message per
// incident H-edge. In LOCAL mode every origin learned in a round carries
// the same budget, so a node sends one message per H-edge per round for R
// rounds: at most 2|S| per round, i.e. O(R · |S|) total — with H an
// α-spanner and R = αt this is the Õ(t · n^{1+ε}) of Lemma 12; with H = G
// and R = t it is the Θ(t·m) baseline.
//
// Under an enforced CONGEST budget (sim/congest.hpp) the same rule runs on
// per-hop budgets instead of the round counter: every origin travels at
// most R hops, and an origin that arrives again later with a larger
// remaining budget (a shorter path the budget delayed) is learned and
// re-forwarded like any other. Coverage is therefore still exactly
// B_{H,R}(v). The budget stretches RunStats.rounds (multi-word bundles
// crawl through B-word edges) and adds the re-forwards to the message
// count without shrinking what anyone learns.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/congest.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"

namespace fl::localsim {

struct BroadcastRun {
  /// reached[v] = origins known to v after the run (ascending node ids).
  std::vector<std::vector<graph::NodeId>> reached;
  sim::RunStats stats;
  sim::Metrics metrics;
};

/// Flood origin ids for `rounds` rounds over the subgraph given by `edges`
/// (pass all edge ids for G itself). Every node is an origin. `congest` is
/// the network's bandwidth budget (default: unlimited, plain LOCAL); with a
/// finite budget the run takes more rounds but reaches the same sets.
BroadcastRun run_tlocal_broadcast(
    const graph::Graph& g, const std::vector<graph::EdgeId>& edges,
    unsigned rounds, std::uint64_t seed, sim::CongestConfig congest = {});

/// Convenience: all edges of g (the native Θ(t·m) variant).
std::vector<graph::EdgeId> all_edges(const graph::Graph& g);

}  // namespace fl::localsim
