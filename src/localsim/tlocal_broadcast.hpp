// t-local broadcast (paper Section 6, Lemma 12).
//
// Task: every node v must deliver its message M_v to all nodes of
// B_{G,t}(v). Implementation: bundled flooding over a subgraph H = (V, S)
// for R logical rounds, with one forwarding rule: at the start of each
// logical round, every node sends the origins it learned in the previous
// one as ONE message per incident H-edge. A node therefore sends at most
// one message per H-edge per logical round: at most 2|S| per round, i.e.
// O(R · |S|) total — with H an α-spanner and R = αt this is the
// Õ(t · n^{1+ε}) of Lemma 12; with H = G and R = t it is the Θ(t·m)
// baseline.
//
// A bundle encodes its origin set as 64-origin blocks: (block index,
// 64-bit mask) pairs, so a receiver merges 64 origins per machine word.
// Its word bill is still the number of origins it carries (one LOCAL word
// per ID), not the size of that encoding, so messages and words are those
// of a plain ID list.
//
// Each node keeps its known set as a bitset of the same 64-origin blocks
// (OriginSet). The run hands those bitsets out as they are, moved out of
// the nodes: a reached set is n/64 words, not a sorted ID list, and the
// transformer's ball evaluation tests membership on it directly.
//
// A logical round ends on the first engine round at which nothing is
// parked in a congest calendar. In LOCAL mode that is every round, so
// logical and engine rounds coincide. Under an enforced CONGEST budget
// (sim/congest.hpp) a round waits until its bundles have crawled through
// the B-word edges; every node then learns in logical round r exactly the
// origins at H-distance r, as in LOCAL. Messages, words and the reached
// sets B_{H,R}(v) are therefore those of the LOCAL run under any budget;
// only RunStats.rounds stretches. The drain fact is a global oracle (an
// oracle-assisted synchronizer in the sense of Awerbuch, JACM 1985), so
// budgeted round counts are oracle-assisted (docs/CONTRACTS.md C13).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/congest.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"

namespace fl::localsim {

/// A set of node ids as a bitset: bit u % 64 of words[u / 64] is set iff
/// u is in the set. `count` is the number of set bits.
struct OriginSet {
  std::vector<std::uint64_t> words;
  std::size_t count = 0;

  std::size_t size() const { return count; }
  bool contains(graph::NodeId u) const {
    return ((words[u / 64] >> (u % 64)) & 1) != 0;
  }
  bool operator==(const OriginSet&) const = default;
};

/// One broadcast's result. `reached`, stats.messages and metrics.words_total
/// are independent of the CONGEST budget; stats.rounds and
/// metrics.deferrals_total are not.
struct BroadcastRun {
  /// reached[v] = origins known to v after the run: v's own known-set
  /// bitset, moved out of its flooding program.
  std::vector<OriginSet> reached;
  sim::RunStats stats;
  sim::Metrics metrics;
};

/// Flood origin ids for `rounds` logical rounds over the subgraph given by
/// `edges` (pass all edge ids for G itself). Every node is an origin.
/// `congest` is the network's bandwidth budget (default: unlimited, plain
/// LOCAL); with a finite budget the run takes more (oracle-assisted)
/// rounds but sends the same messages and words and reaches the same sets.
BroadcastRun run_tlocal_broadcast(
    const graph::Graph& g, const std::vector<graph::EdgeId>& edges,
    unsigned rounds, std::uint64_t seed, sim::CongestConfig congest = {});

/// Convenience: all edges of g (the native Θ(t·m) variant).
std::vector<graph::EdgeId> all_edges(const graph::Graph& g);

}  // namespace fl::localsim
