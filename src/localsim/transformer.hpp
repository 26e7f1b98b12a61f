// The message-reduction transformer (paper Theorem 3, first branch).
//
// Given any t-round LOCAL algorithm A, produce an execution that computes
// the exact same outputs with
//     O(3^γ t + 6^γ) rounds and Õ(t·n^{1+2/(2^{γ+1}−1)}) messages whp:
//   1. run the distributed Sampler with k = γ, h = 2^{γ+1}−1 — an α-spanner
//      H, α = 2·3^γ − 1, costing O(6^γ)-ish rounds and Õ(n^{1+...}) msgs;
//   2. αt-local broadcast over H (Lemma 12): every node learns
//      B_H(v, αt) ⊇ B_G(v, t);
//   3. every node runs A's round rule on its collected ball for t rounds,
//      stepping in round r only the ball nodes within t−1−r hops of
//      itself — local computation, free in the LOCAL model.
// The native execution for comparison floods over G for t rounds: Θ(t·m)
// messages. Outputs of both paths are verified equal to run_reference(),
// one global run of the same rule over G.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "localsim/local_algorithm.hpp"
#include "sim/congest.hpp"
#include "sim/metrics.hpp"

namespace fl::localsim {

struct ExecutionReport {
  std::vector<std::uint64_t> outputs;
  std::size_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t deferrals = 0;  ///< congest-mode message-round delays

  // Simulated path only: stage breakdown.
  std::uint64_t spanner_messages = 0;
  std::size_t spanner_rounds = 0;
  std::uint64_t broadcast_messages = 0;
  std::size_t broadcast_rounds = 0;
  std::size_t spanner_edges = 0;
  double alpha = 1.0;  ///< spanner stretch used for the broadcast radius
};

/// Native LOCAL execution: t rounds of bundled flooding over G, then local
/// evaluation. Θ(t·m) messages — the baseline being improved. `congest` is
/// the broadcast network's bandwidth budget (default: unlimited, plain
/// LOCAL); a finite budget stretches the reported rounds without changing
/// the outputs.
ExecutionReport run_native(const graph::Graph& g, const LocalAlgorithm& alg,
                           std::uint64_t seed,
                           sim::CongestConfig congest = {});

/// Message-reduced execution via the distributed Sampler spanner.
/// `sampler` supplies (k=γ, h, constants); the broadcast radius is
/// stretch_bound() · t. `congest` applies to the broadcast stage (the
/// sampler stage takes its budget from `sampler.congest`, see config.hpp).
ExecutionReport run_simulated(const graph::Graph& g, const LocalAlgorithm& alg,
                              const core::SamplerConfig& sampler,
                              sim::CongestConfig congest = {});

/// Like run_simulated but over a caller-provided spanner (used by the
/// two-stage scheme of Theorem 3's second branch, where stage 1's output
/// spanner simulates stage 2's construction).
ExecutionReport run_over_spanner(const graph::Graph& g,
                                 const LocalAlgorithm& alg,
                                 const std::vector<graph::EdgeId>& spanner,
                                 double alpha, std::uint64_t seed,
                                 sim::CongestConfig congest = {});

}  // namespace fl::localsim
