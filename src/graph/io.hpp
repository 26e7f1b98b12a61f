// Plain-text graph I/O: a one-edge-per-line format for persistence and DOT
// export for the illustrative examples (Figure 1 reproduction).
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "graph/graph.hpp"

namespace fl::graph {

/// Format:
///   n <num_nodes>
///   e <u> <v>      (one line per edge; edge ids assigned in file order)
/// Lines starting with '#' are comments. Ids are unsigned decimals that fit
/// NodeId; a sign, a non-digit suffix or a trailing token throws
/// ContractViolation naming the line number.
void write_edge_list(std::ostream& os, const Graph& g);
Graph read_edge_list(std::istream& is);

/// Graphviz DOT. Spanner edges (if provided) are drawn bold/colored so
/// `dot -Tpng` renders a figure-1-style picture.
void write_dot(std::ostream& os, const Graph& g,
               std::span<const EdgeId> highlighted_edges = {},
               const std::string& name = "G");

}  // namespace fl::graph
