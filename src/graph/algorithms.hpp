// Classic graph algorithms used by the verification and bench layers:
// BFS distances (full graph and edge-subset subgraphs), connectivity,
// diameter, and spanning trees.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace fl::graph {

/// Distance value for unreachable nodes.
inline constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/// BFS distances from `source` over the whole graph.
std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source);

/// BFS distances from `source`, truncated at `max_depth` (nodes further away
/// stay kUnreachable). Visits only the ball, so it is cheap for small depths.
std::vector<std::uint32_t> bfs_distances_bounded(const Graph& g, NodeId source,
                                                 std::uint32_t max_depth);

/// A reusable adjacency view of the subgraph H = (V, S) for an edge subset S
/// of a fixed graph. Build once, then run many BFS queries over H.
class SubgraphView {
 public:
  SubgraphView(const Graph& g, std::span<const EdgeId> edges);

  const Graph& base() const { return *g_; }
  NodeId num_nodes() const { return g_->num_nodes(); }
  std::size_t num_edges() const { return edge_count_; }

  std::span<const Incidence> incident(NodeId v) const;

  /// BFS over the subgraph from `source`.
  std::vector<std::uint32_t> bfs_distances(NodeId source) const;

  /// BFS over the subgraph truncated at `max_depth`.
  std::vector<std::uint32_t> bfs_distances_bounded(NodeId source,
                                                   std::uint32_t max_depth) const;

  /// dist_H(source, target) if it is at most `max_depth`, else
  /// kUnreachable: bfs_distances_bounded(source, max_depth)[target], but the
  /// search stops as soon as it discovers `target`.
  std::uint32_t distance_capped(NodeId source, NodeId target,
                                std::uint32_t max_depth) const;

  /// True iff the subgraph spans the base graph's single component set, i.e.
  /// every pair connected in G is connected in H.
  bool preserves_connectivity() const;

 private:
  const Graph* g_;
  std::size_t edge_count_;
  std::vector<std::size_t> offsets_;
  std::vector<Incidence> incidence_;
};

/// Component labelling: result[v] in [0, count).
struct Components {
  std::size_t count = 0;
  std::vector<NodeId> label;
};
Components connected_components(const Graph& g);

bool is_connected(const Graph& g);

/// Exact diameter via all-sources BFS; O(n·m), intended for test-size graphs.
std::uint32_t diameter_exact(const Graph& g);

/// Double-sweep lower bound: BFS from an arbitrary node, then BFS from the
/// farthest node found. Cheap and usually tight on real graphs.
std::uint32_t diameter_double_sweep(const Graph& g);

/// Edge ids of a BFS spanning forest (one tree per component).
std::vector<EdgeId> spanning_forest(const Graph& g);

}  // namespace fl::graph
