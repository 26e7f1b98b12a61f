// CONGEST bandwidth budgets for the round engine.
//
// The LOCAL model the simulator speaks natively places no bound on message
// size; the paper's message-reduction theorems are nevertheless stated
// against CONGEST-style comparisons, where every edge carries at most B
// words per round. A CongestConfig turns that comparison from advisory
// (words were only *recorded* per message) into an enforced property of
// the execution: at the merge barrier the engine meters words per
// *directed* edge per round and defers the overflow — the faithful CONGEST
// semantics. Each directed edge is a FIFO channel with a bandwidth of B
// words per round: messages that do not fit wait for later rounds,
// stretching RunStats.rounds exactly the way a real CONGEST execution
// would. While an edge stays backlogged its unused capacity banks up, so
// one K-word message crosses in ceil(K / B) rounds and a pipelined backlog
// drains at B words per round. Messages are atomic: a message is delivered
// in the round its last word arrives.
//
// The rule has a closed form, so a message's delivery round is computed
// once, when it first reaches admission; a deferred message is filed in a
// calendar bucket keyed by that round and popped exactly then.
// Enforcement happens after the (unchanged) deterministic shard merge, in
// a pass that is chunk-parallel over the destination shards: a directed
// edge delivers to exactly one node, so every per-edge budget state and
// calendar entry is owned by exactly one shard — parallel stepping stays
// contention-free and admission order is bit-identical for every thread
// count, just like delivery itself.
#pragma once

#include <cstdint>

namespace fl::sim {

/// Per-edge bandwidth budget threaded through sim::Network. The default
/// (kUnlimited) is the plain LOCAL model: no tally, no admission pass, no
/// overhead — bit-for-bit the unbudgeted engine.
struct CongestConfig {
  static constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};

  /// Words each directed edge may deliver per round; >= 1 when finite.
  std::uint64_t words_per_edge_per_round = kUnlimited;

  bool enforced() const { return words_per_edge_per_round != kUnlimited; }
};

}  // namespace fl::sim
