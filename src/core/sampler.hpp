// Algorithm Sampler — centralized reference implementation.
//
// A faithful transcription of Pseudocode 1 + 2 (paper Section 3): k+1
// levels, each running Procedure Cluster_j (2h edge-sampling trials with
// parallel-edge peeling, then center marking and cluster contraction).
// The distributed implementation (distributed_sampler.hpp) produces a
// spanner with the same guarantees by exchanging real messages (the
// transformer runs that one); this one is the oracle used for correctness
// tests, the E1–E4 benches and two examples (cluster_trace,
// distance_oracle).
//
// Guarantees (whp over the seed, for paper-faithful constants):
//   * H = (V, S) is a (2·3^k − 1)-spanner of G          (Theorem 9)
//   * |S| = Õ(n^{1 + 1/(2^{k+1}−1)})                    (Lemma 10)
//   * Σ distinct query edges = Õ(n^{1 + δ + 1/h})       (drives Theorem 11)
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/hierarchy.hpp"
#include "graph/graph.hpp"
#include "graph/multigraph.hpp"

namespace fl::core {

/// Output of a Sampler run.
struct SpannerResult {
  std::vector<graph::EdgeId> edges;  ///< S, ascending physical edge ids
  HierarchyTrace trace;

  double stretch_bound = 0.0;  ///< 2·3^k − 1 for the config used
};

/// Run the centralized Sampler on a connected simple graph.
SpannerResult build_spanner(const graph::Graph& g, const SamplerConfig& cfg);

/// Run the centralized Sampler on a multigraph — the paper's Section 1.2
/// remark: with unique edge IDs the algorithm and analysis also apply to
/// communication graphs with parallel edges (|E| <= n^{O(1)}).
/// `num_physical_edges` is the size of the edge-ID space; `result.edges`
/// contains the selected physical ids.
SpannerResult build_spanner_multigraph(const graph::Multigraph& g0,
                                       const SamplerConfig& cfg,
                                       std::size_t num_physical_edges);

/// Outcome of one virtual node in one run of Cluster_j (exposed for tests).
struct NodeOutcome {
  NodeStatus status = NodeStatus::Neither;
  /// Queried neighbours in discovery order with the F_v edge chosen for
  /// each: (neighbour virtual id, local multigraph edge id).
  std::vector<std::pair<graph::NodeId, graph::EdgeId>> f_edges;
  std::uint64_t distinct_query_edges = 0;
  unsigned trials_run = 0;
};

/// Run the *first step* of Cluster_j on a multigraph level: the iterative
/// edge-sampling process of every virtual node. Exposed so unit tests can
/// probe Lemma 6 (light/heavy) directly on crafted multigraphs.
///
/// `n0` is the physical node count (the paper's exponents use global n),
/// `level` is j, and `rep` maps virtual nodes to their physical
/// representative (used to key per-node randomness).
std::vector<NodeOutcome> run_sampling_step(const graph::Multigraph& m,
                                           const SamplerConfig& cfg,
                                           double n0, unsigned level,
                                           const std::vector<graph::NodeId>& rep);

}  // namespace fl::core
