#include "graph/spanner_check.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"
#include "util/assert.hpp"

namespace fl::graph {

bool is_valid_edge_subset(const Graph& g, std::span<const EdgeId> spanner) {
  std::vector<bool> seen(g.num_edges(), false);
  for (const EdgeId e : spanner) {
    if (e >= g.num_edges()) return false;
    if (seen[e]) return false;
    seen[e] = true;
  }
  return true;
}

StretchReport check_spanner_exact(const Graph& g,
                                  std::span<const EdgeId> spanner,
                                  double alpha) {
  FL_REQUIRE(is_valid_edge_subset(g, spanner), "invalid spanner edge set");
  const SubgraphView h(g, spanner);
  StretchReport rep;
  rep.connected = h.preserves_connectivity();

  // dist_H(u, v) for every G-edge: one BFS on H per node covers all edges
  // whose lower endpoint is that node.
  double sum = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    bool has_relevant_edge = false;
    for (const Incidence& inc : g.incident(u))
      if (inc.to > u) {
        has_relevant_edge = true;
        break;
      }
    if (!has_relevant_edge) continue;
    const auto dist = h.bfs_distances(u);
    for (const Incidence& inc : g.incident(u)) {
      if (inc.to <= u) continue;  // count each undirected edge once
      const bool unreachable = dist[inc.to] == kUnreachable;
      const double d = unreachable ? static_cast<double>(g.num_nodes())
                                   : static_cast<double>(dist[inc.to]);
      rep.max_edge_stretch = std::max(rep.max_edge_stretch, d);
      sum += d;
      ++rep.edges_checked;
      // An endpoint pair disconnected in H violates every finite stretch.
      if (alpha > 0.0 && (unreachable || d > alpha)) ++rep.violations;
    }
  }
  rep.mean_edge_stretch = rep.edges_checked
                              ? sum / static_cast<double>(rep.edges_checked)
                              : 0.0;
  return rep;
}

StretchReport check_spanner_sampled(const Graph& g,
                                    std::span<const EdgeId> spanner,
                                    std::size_t sample_edges,
                                    std::uint32_t depth_cap,
                                    util::Xoshiro256& rng,
                                    double alpha) {
  FL_REQUIRE(is_valid_edge_subset(g, spanner), "invalid spanner edge set");
  FL_REQUIRE(depth_cap > 0, "depth cap must be positive");
  const SubgraphView h(g, spanner);
  StretchReport rep;
  rep.connected = true;  // not verified in sampled mode; see exact checker

  const auto picks = util::sample_without_replacement(
      g.num_edges(), std::min<std::size_t>(sample_edges, g.num_edges()), rng);
  double sum = 0.0;
  for (const std::size_t e : picks) {
    const Endpoints ep = g.endpoints(static_cast<EdgeId>(e));
    const std::uint32_t dist = h.distance_capped(ep.u, ep.v, depth_cap);
    const double d = dist == kUnreachable
                         ? static_cast<double>(depth_cap) + 1.0
                         : static_cast<double>(dist);
    rep.max_edge_stretch = std::max(rep.max_edge_stretch, d);
    sum += d;
    ++rep.edges_checked;
    if (alpha > 0.0 && d > alpha) ++rep.violations;
  }
  rep.mean_edge_stretch = rep.edges_checked
                              ? sum / static_cast<double>(rep.edges_checked)
                              : 0.0;
  return rep;
}

}  // namespace fl::graph
