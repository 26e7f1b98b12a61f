#include "graph/io.hpp"

#include <array>
#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace fl::graph {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << "n " << g.num_nodes() << '\n';
  for (const auto& e : g.edges()) os << "e " << e.u << ' ' << e.v << '\n';
}

// The edge-list grammar. Every line is empty, blank, a '#' comment, or a
// tag followed by exactly its ids, separated by whitespace:
// "n <num_nodes>" (once) or "e <u> <v>". An id is a plain unsigned decimal
// that fits NodeId. A sign, a non-digit suffix, an out-of-range value, a
// missing or trailing token, an unknown tag or a second 'n' line throws
// ContractViolation naming the 1-based line. Edges are buffered until the
// end of input, since the 'n' line may follow them.
Graph read_edge_list(std::istream& is) {
  std::string line;
  std::size_t lineno = 0;
  bool have_n = false;
  NodeId n = 0;
  std::vector<Endpoints> edges;
  while (std::getline(is, line)) {
    ++lineno;
    if (!line.empty() && line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) continue;  // blank line
    // The ids, plus one slot so a trailing token fails the arity check.
    std::array<std::string, 3> ids;
    std::size_t count = 0;
    while (count < ids.size() && ls >> ids[count]) ++count;
    const auto where = [&] {
      return "edge list line " + std::to_string(lineno) + ": ";
    };
    const auto id = [&](const std::string& t) {
      NodeId v = 0;
      const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
      FL_REQUIRE(ec == std::errc() && end == t.data() + t.size(),
                 where() + "'" + t + "' is not an unsigned 32-bit node id");
      return v;
    };
    if (tag == "n") {
      FL_REQUIRE(count == 1, where() + "expected 'n <num_nodes>'");
      FL_REQUIRE(!have_n, where() + "duplicate 'n' line in edge list");
      have_n = true;
      n = id(ids[0]);
    } else if (tag == "e") {
      FL_REQUIRE(count == 2, where() + "expected 'e <u> <v>'");
      const NodeId u = id(ids[0]);
      edges.push_back({u, id(ids[1])});
    } else {
      FL_REQUIRE(false, where() + "unknown edge-list tag '" + tag + "'");
    }
  }
  FL_REQUIRE(have_n, "edge list missing 'n' line");
  Graph::Builder b(n);
  for (const auto& e : edges) b.add_edge(e.u, e.v);
  return std::move(b).build();
}

void write_dot(std::ostream& os, const Graph& g,
               std::span<const EdgeId> highlighted_edges,
               const std::string& name) {
  std::vector<bool> highlight(g.num_edges(), false);
  for (const EdgeId e : highlighted_edges) {
    FL_REQUIRE(e < g.num_edges(), "highlighted edge id out of range");
    highlight[e] = true;
  }
  os << "graph " << name << " {\n";
  os << "  node [shape=circle fontsize=10];\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) os << "  " << v << ";\n";
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Endpoints ep = g.endpoints(e);
    os << "  " << ep.u << " -- " << ep.v;
    if (highlight[e]) os << " [penwidth=2.5 color=crimson]";
    else os << " [color=gray60]";
    os << ";\n";
  }
  os << "}\n";
}

}  // namespace fl::graph
