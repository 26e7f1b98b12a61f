#include "localsim/local_algorithm.hpp"

namespace fl::localsim {

std::vector<std::uint64_t> run_reference(const graph::Graph& g,
                                         const LocalAlgorithm& alg) {
  const unsigned t = alg.radius(g);
  const graph::NodeId n = g.num_nodes();
  std::vector<std::uint64_t> state(n), next(n);
  for (graph::NodeId v = 0; v < n; ++v) state[v] = alg.init(v);
  for (unsigned r = 0; r < t; ++r) {
    for (graph::NodeId v = 0; v < n; ++v)
      next[v] = alg.step(r, v, state[v],
                         Neighbours{g.incident(v), state.data(), nullptr});
    state.swap(next);
  }
  for (graph::NodeId v = 0; v < n; ++v) state[v] = alg.output(v, state[v]);
  return state;
}

}  // namespace fl::localsim
