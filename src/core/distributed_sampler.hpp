// Distributed implementation of Algorithm Sampler (paper Section 5).
//
// Runs as a NodeProgram on the synchronous LOCAL simulator with unique edge
// IDs. Every physical node executes the same deterministic phase schedule,
// computable locally from (k, h) and the n its driver hands it — no global
// orchestrator exists, matching the model.
//
// Realization of the paper's simulation argument:
//   * A virtual node v ∈ V_j is a cluster C_j(v) of physical nodes with a
//     spanning tree of height ≤ 3^j − 1 (Lemma 8); its local actions are
//     simulated by flood (broadcast) and echo (convergecast) sessions over
//     the tree, each allotted a window of W_j = 3^j − 1 rounds.
//   * Each node program (SamplerNode) is built from three primitives. One
//     flood routine serves the root and every relay: apply the message's
//     state update, then forward it to the tree children. One echo,
//     generic over the reported item type, concatenates a member's own
//     items with its children's and sends them up as one message; only
//     the root's reduction differs per session (gather: drop intra-cluster
//     edges; collect: canonical sort, capped F_v selection and peel;
//     center: smallest-id pick). One send helper meters every message at
//     its type's word count and bills its MessageBreakdown role.
//   * E_j(v) is computed *without* talking to non-members: members report
//     their candidate incident edges up the tree; an edge reported twice
//     has both endpoints inside (intra-cluster) and is discarded. This is
//     exactly what the unique-edge-ID model assumption buys.
//   * The per-trial uniform sample over X_v is realized by a count gather
//     (echo), a rate flood, and per-member binomial draws — the per-
//     neighbour hit distribution matches the centralized sampler's
//     multinomial marginals.
//   * Query edges carry a QUERY message; the queried endpoint answers with
//     its cluster id and the cluster's full boundary-edge-ID list, which is
//     what lets the querying cluster peel every parallel edge (Section 1.3).
//   * Unclustered (dropped) virtual nodes announce their death over their
//     F_v edges (they are light whp, so that covers every G_j neighbour);
//     a query hitting an unannounced dead cluster is answered with a DEAD
//     response and peeled the same way — the whp-failure fallback.
//
// Round complexity: the schedule length, O(3^k · h) by construction
// (Theorem 11). Message complexity: metered by the simulator —
// Õ(n^{1+δ+ε}) whp (Theorem 11), *independent of |E|*.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/hierarchy.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"

namespace fl::core {

/// One entry of the globally shared phase timetable.
struct PhaseSpec {
  enum class Kind : std::uint8_t {
    FloodSetup,        ///< root floods; establishes per-level tree parents
    GatherEcho,        ///< members report candidate edges; root dedupes intra
    FloodBoundary,     ///< root floods the final E_j(v) list + cluster id
    TrialRateFlood,    ///< root floods (T, total) or a skip flag
    QuerySend,         ///< members send QUERY over sampled edges (1 round)
    QueryRespond,      ///< queried endpoints answer (1 round)
    TrialCollectEcho,  ///< members report discovered neighbours
    TrialApplyFlood,   ///< root floods F_v choices + peel lists
    CenterFlood,       ///< root flips the p_j coin, floods the flag
    CenterQuery,       ///< F_v-edge owners ask "are you a center?" (1 round)
    CenterRespond,     ///< answers (1 round)
    CenterCollectEcho, ///< members report center neighbours
    JoinFlood,         ///< root floods Stay / Join(u*, e*) / Die
    AttachNotify,      ///< attach-edge owner notifies the other side (1 round)
    DeathAnnounce,     ///< dying clusters notify neighbours over F_v edges
  };

  Kind kind{};
  unsigned level = 0;
  int trial = -1;          ///< trial index for trial phases, else -1
  std::size_t start = 0;   ///< first round of the phase
  std::size_t length = 0;  ///< in rounds; level-0 tree windows are 0
};

/// The full timetable for a (k, h) configuration. Identical at every node.
///
/// In plain LOCAL the start/length windows are the execution plan — the
/// paper's timetable. Under an enforced CONGEST budget only the phase
/// *sequence* matters: a phase ends on the first silent round (Context::
/// network_silent) instead of at start + length.
struct Schedule {
  std::vector<PhaseSpec> phases;
  std::size_t total_rounds = 0;  ///< the paper's timetable length

  static Schedule build(const SamplerConfig& cfg);
};

/// Message counts by protocol role — the concrete form of Theorem 11's
/// accounting: queries/replies are the Õ(n^{1+δ+ε}) term; tree sessions are
/// the O(n)-per-session broadcast/convergecast overhead; death/center/attach
/// are lower-order.
struct MessageBreakdown {
  std::uint64_t queries = 0;        ///< QUERY + their replies
  std::uint64_t tree_sessions = 0;  ///< flood/echo traffic over cluster trees
  std::uint64_t center = 0;         ///< center queries + replies
  std::uint64_t control = 0;        ///< attach + death announcements

  std::uint64_t total() const {
    return queries + tree_sessions + center + control;
  }
};

/// Result of a distributed run: the spanner plus simulator metrics.
struct DistributedSpannerRun {
  std::vector<graph::EdgeId> edges;  ///< S, ascending physical edge ids
  double stretch_bound = 0.0;
  sim::RunStats stats;               ///< rounds + total messages
  sim::Metrics metrics;              ///< full per-round accounting
  MessageBreakdown breakdown;        ///< messages by protocol role

  // Per-level diagnostics assembled from root states (mirrors LevelTrace).
  std::vector<LevelTrace> levels;
};

/// Build and run the distributed Sampler on `g` on an internally created
/// network (the paper's model: unique edge IDs known at both endpoints).
/// Rejects (ContractViolation) the centralized-only ablation
/// peel_parallel_edges = false.
DistributedSpannerRun run_distributed_sampler(
    const graph::Graph& g, const SamplerConfig& cfg);

}  // namespace fl::core
