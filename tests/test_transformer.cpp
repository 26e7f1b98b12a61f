// Tests for the message-reduction transformer (paper Theorem 3).
//
// The gold property: the transformed execution computes *identical outputs*
// to the native LOCAL execution and to the reference semantics, while
// sending asymptotically fewer messages on dense graphs.
#include <gtest/gtest.h>

#include <memory>

#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "localsim/algorithms.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "localsim/transformer.hpp"
#include "util/rng.hpp"

namespace fl {
namespace {

using core::SamplerConfig;
using graph::Graph;

std::vector<std::unique_ptr<localsim::LocalAlgorithm>> payloads() {
  std::vector<std::unique_ptr<localsim::LocalAlgorithm>> out;
  out.push_back(std::make_unique<localsim::LubyMis>(101, 6));
  out.push_back(std::make_unique<localsim::GreedyColoring>(103, 5));
  out.push_back(std::make_unique<localsim::BfsLayers>(3));
  out.push_back(std::make_unique<localsim::LeaderElection>(2));
  out.push_back(std::make_unique<localsim::LocalMin>(2));
  return out;
}

TEST(Transformer, NativeMatchesReference) {
  util::Xoshiro256 rng(3);
  const Graph g = graph::erdos_renyi_gnm(150, 900, rng);
  for (const auto& alg : payloads()) {
    const auto native = localsim::run_native(g, *alg, 7);
    const auto ref = localsim::run_reference(g, *alg);
    EXPECT_EQ(native.outputs, ref) << alg->name();
  }
}

TEST(Transformer, SimulatedMatchesReference) {
  // The headline fidelity property of Theorem 3.
  util::Xoshiro256 rng(5);
  const Graph g = graph::erdos_renyi_gnm(150, 1200, rng);
  const auto cfg = SamplerConfig::paper_faithful(1, 2, 11);
  for (const auto& alg : payloads()) {
    const auto sim = localsim::run_simulated(g, *alg, cfg);
    const auto ref = localsim::run_reference(g, *alg);
    EXPECT_EQ(sim.outputs, ref) << alg->name();
  }
}

TEST(Transformer, SimulatedMatchesOnStructuredGraphs) {
  const auto cfg = SamplerConfig::paper_faithful(1, 2, 13);
  const localsim::LeaderElection alg(3);
  for (const Graph& g :
       {graph::grid(10, 10), graph::hypercube(6), graph::dumbbell(80, 6)}) {
    const auto sim = localsim::run_simulated(g, alg, cfg);
    EXPECT_EQ(sim.outputs, localsim::run_reference(g, alg)) << g.summary();
  }
}

TEST(Transformer, MessageSavingsOnDenseGraph) {
  // On K_n the native t-round execution costs Θ(m) messages per payload;
  // the reduced execution pays the (density-independent) Õ(n^{1+δ+ε})
  // sampler preprocessing ONCE plus Õ(|S|·αt) flooding per payload. At
  // n=300 the preprocessing constant still rivals a single native run
  // (bench E9 shows the one-shot crossover at larger n), so we assert the
  // two regimes the theorem actually promises at this scale:
  //   (a) steady state: per-payload flooding beats native flooding;
  //   (b) amortized over a few payloads the total wins too.
  // Every arm is a LOCAL run: pin the budget so FL_SIM_CONGEST cannot
  // stretch the sampler or re-forward broadcast bundles.
  const Graph g = graph::complete(300);
  auto cfg = SamplerConfig::bench_profile(2, 3, 17);
  cfg.congest = sim::CongestConfig{};
  const auto spanner_run = core::build_spanner(g, cfg);

  std::uint64_t native_total = 0;
  std::uint64_t reduced_total = 0;
  const unsigned payload_count = 3;
  for (unsigned i = 0; i < payload_count; ++i) {
    const localsim::LocalMin alg(4 + i);
    const auto native =
        localsim::run_native(g, alg, 17 + i, sim::CongestConfig{});
    const auto reduced =
        localsim::run_over_spanner(g, alg, spanner_run.edges,
                                   cfg.stretch_bound(), 17 + i,
                                   sim::CongestConfig{});
    EXPECT_EQ(reduced.outputs, native.outputs) << "payload " << i;
    EXPECT_LT(reduced.messages, native.messages) << "payload " << i;  // (a)
    native_total += native.messages;
    reduced_total += reduced.messages;
  }
  // (b): one distributed-sampler preprocessing amortized over the payloads.
  const auto pre = core::run_distributed_sampler(g, cfg);
  EXPECT_LT(pre.stats.messages + reduced_total, native_total);
}

TEST(Transformer, RoundOverheadIsConstantFactor) {
  // O(3^γ·t + 6^γ) rounds: for γ=1, alpha=5, so rounds <= ~5t + spanner
  // schedule. Verify against the concrete schedule constant.
  util::Xoshiro256 rng(19);
  const Graph g = graph::erdos_renyi_gnm(200, 1500, rng);
  const localsim::BfsLayers alg(4);
  const auto cfg = SamplerConfig::paper_faithful(1, 2, 19);
  const auto sim = localsim::run_simulated(g, alg, cfg);
  const auto native = localsim::run_native(g, alg, 19);
  EXPECT_LE(sim.broadcast_rounds,
            static_cast<std::size_t>(cfg.stretch_bound()) * native.rounds + 4);
  EXPECT_GT(sim.spanner_rounds, 0u);
}

TEST(Transformer, StageBreakdownAddsUp) {
  util::Xoshiro256 rng(23);
  const Graph g = graph::erdos_renyi_gnm(120, 700, rng);
  const localsim::LeaderElection alg(2);
  const auto cfg = SamplerConfig::paper_faithful(1, 2, 23);
  const auto sim = localsim::run_simulated(g, alg, cfg);
  EXPECT_EQ(sim.messages, sim.spanner_messages + sim.broadcast_messages);
  EXPECT_EQ(sim.rounds, sim.spanner_rounds + sim.broadcast_rounds);
  EXPECT_GT(sim.spanner_edges, 0u);
  EXPECT_DOUBLE_EQ(sim.alpha, cfg.stretch_bound());
}

TEST(Transformer, RunOverSpannerWithWholeGraphIsNative) {
  // Degenerate check: H = G with alpha = 1 must reproduce native behaviour.
  util::Xoshiro256 rng(29);
  const Graph g = graph::erdos_renyi_gnm(100, 400, rng);
  const localsim::LocalMin alg(3);
  const auto over = localsim::run_over_spanner(
      g, alg, localsim::all_edges(g), 1.0, 31);
  const auto native = localsim::run_native(g, alg, 31);
  EXPECT_EQ(over.outputs, native.outputs);
  EXPECT_EQ(over.messages, native.messages);
}

TEST(Transformer, TwoStagePipelineMatchesReference) {
  // Theorem 3 second branch in miniature: stage 1 = Sampler spanner H;
  // stage 2 = the Voronoi nearly-additive construction *expressed as a
  // LOCAL payload is exercised in test_integration*; here we validate the
  // plumbing run_over_spanner() used by that pipeline.
  util::Xoshiro256 rng(31);
  const Graph g = graph::erdos_renyi_gnm(150, 1000, rng);
  const auto cfg = SamplerConfig::paper_faithful(1, 2, 37);
  const auto spanner_run = core::build_spanner(g, cfg);
  const localsim::LeaderElection alg(2);
  const auto over = localsim::run_over_spanner(
      g, alg, spanner_run.edges, cfg.stretch_bound(), 41);
  EXPECT_EQ(over.outputs, localsim::run_reference(g, alg));
}

}  // namespace
}  // namespace fl
