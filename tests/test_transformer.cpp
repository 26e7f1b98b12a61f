// Tests for the message-reduction transformer (paper Theorem 3).
//
// The gold property: the transformed execution computes *identical outputs*
// to the native LOCAL execution and to the reference semantics, while
// sending asymptotically fewer messages on dense graphs.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>

#include "baseline/baswana_sen.hpp"
#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "localsim/algorithms.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "localsim/transformer.hpp"
#include "sim/congest.hpp"
#include "trace_hash.hpp"
#include "util/rng.hpp"

namespace fl {
namespace {

using core::SamplerConfig;
using graph::Graph;

/// All six local algorithms, each run for t rounds.
std::vector<std::unique_ptr<localsim::LocalAlgorithm>> payloads(unsigned t) {
  std::vector<std::unique_ptr<localsim::LocalAlgorithm>> out;
  out.push_back(std::make_unique<localsim::LubyMis>(101, t));
  out.push_back(std::make_unique<localsim::GreedyColoring>(103, t));
  out.push_back(std::make_unique<localsim::BfsLayers>(t));
  out.push_back(std::make_unique<localsim::LeaderElection>(t));
  out.push_back(std::make_unique<localsim::LocalMin>(t));
  out.push_back(std::make_unique<localsim::MaximalMatching>(107, t));
  return out;
}

TEST(Transformer, NativeMatchesReference) {
  // Native flooding, and flooding over a Baswana–Sen spanner (k = 2,
  // stretch 3) that drops edges, must both reproduce the global run.
  util::Xoshiro256 rng(3);
  for (const Graph& g : {graph::erdos_renyi_gnm(150, 900, rng),
                         graph::barabasi_albert(150, 2, rng)}) {
    const auto bs = baseline::build_baswana_sen(g, 2, 59);
    ASSERT_LT(bs.edges.size(), g.num_edges()) << g.summary();
    for (unsigned t = 1; t <= 4; ++t) {
      for (const auto& alg : payloads(t)) {
        const auto ref = localsim::run_reference(g, *alg);
        const auto native = localsim::run_native(g, *alg, 7);
        const auto over = localsim::run_over_spanner(g, *alg, bs.edges,
                                                     bs.stretch_bound(), 7);
        EXPECT_EQ(native.outputs, ref) << alg->name() << " t=" << t;
        EXPECT_EQ(over.outputs, ref) << alg->name() << " t=" << t;
      }
    }
  }
}

TEST(Transformer, SimulatedMatchesReference) {
  // The headline fidelity property of Theorem 3.
  util::Xoshiro256 rng(5);
  const Graph g = graph::erdos_renyi_gnm(150, 1200, rng);
  const auto cfg = SamplerConfig::paper_faithful(1, 2, 11);
  for (const auto& alg : payloads(3)) {
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
  const Graph g = graph::complete(300);
  const auto cfg = SamplerConfig::bench_profile(2, 3, 17);
  const auto spanner_run = core::build_spanner(g, cfg);

  std::uint64_t native_total = 0;
  std::uint64_t reduced_total = 0;
  const unsigned payload_count = 3;
  for (unsigned i = 0; i < payload_count; ++i) {
    const localsim::LocalMin alg(4 + i);
    const auto native = localsim::run_native(g, alg, 17 + i);
    const auto reduced = localsim::run_over_spanner(
        g, alg, spanner_run.edges, cfg.stretch_bound(), 17 + i);
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

TEST(Transformer, BallEvaluationReadsOnlyCollectedNodes) {
  // Over an empty subgraph every node collects only itself, so it must
  // evaluate as if isolated, whatever G's topology: its own id leads.
  util::Xoshiro256 rng(37);
  const Graph g = graph::erdos_renyi_gnm(60, 240, rng);
  const localsim::LeaderElection alg(2);
  const auto rep = localsim::run_over_spanner(g, alg, {}, 1.0, 43);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(rep.outputs[v], v);
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

// ------------------------------------------------ output goldens (pinned)

/// All six local algorithms, with coins and round budgets small enough that
/// the radius-αt balls stay partial on the golden graphs.
std::vector<std::unique_ptr<localsim::LocalAlgorithm>> golden_algorithms() {
  std::vector<std::unique_ptr<localsim::LocalAlgorithm>> out;
  out.push_back(std::make_unique<localsim::LubyMis>(101, 3));
  out.push_back(std::make_unique<localsim::GreedyColoring>(103, 3));
  out.push_back(std::make_unique<localsim::BfsLayers>(2));
  out.push_back(std::make_unique<localsim::LeaderElection>(1));
  out.push_back(std::make_unique<localsim::LocalMin>(1));
  out.push_back(std::make_unique<localsim::MaximalMatching>(107, 2));
  return out;
}

/// One pinned transformer point: graph family, size and parameter,
/// generator seed, the Baswana–Sen parameter k of the spanner the broadcast
/// runs over, its delivery budget, and one hash per algorithm of
/// golden_algorithms(), in order.
struct LocalGoldenPoint {
  graph::Family family;
  graph::NodeId n;
  double param;
  std::uint64_t graph_seed;
  unsigned spanner_k;
  sim::CongestConfig congest;
  std::array<std::uint64_t, 6> hashes;
};

/// FNV over the reference outputs, the outputs evaluated from the balls a
/// spanner broadcast collected, and the collected origin sets themselves.
std::uint64_t local_output_hash(const std::vector<std::uint64_t>& reference,
                                const std::vector<std::uint64_t>& outputs,
                                const localsim::BroadcastRun& broadcast) {
  testing::TraceHash h;
  h.u64(reference.size());
  for (const auto x : reference) h.u64(x);
  h.u64(outputs.size());
  for (const auto x : outputs) h.u64(x);
  for (const auto& known : broadcast.reached) {
    h.u64(known.size());
    for (graph::NodeId u = 0; u < reference.size(); ++u)
      if (known.contains(u)) h.u64(u);
  }
  return h.value();
}

/// Output golden for the local algorithms and the transformer's last two
/// steps: any change to an algorithm's round rule, to what a broadcast
/// collects, or to how a node evaluates its collected ball fails here. The
/// harness only compares the transform against run_reference, a global run
/// of the same rule, so a change to a rule alone would pass it; the phase
/// oracles in test_local_algorithms.cpp cover LubyMis and MaximalMatching
/// independently.
TEST(LocalAlgorithmGolden, OutputsMatchPinnedHashes) {
  using graph::Family;
  const sim::CongestConfig local{};
  const sim::CongestConfig budget2{2};
  const LocalGoldenPoint points[] = {
      {Family::ErdosRenyi, 150, 16, 3, 2, local,
       {0x2cb0655c0fe8fe85ull, 0x6e2656ab2288f1a5ull, 0xe470b0f55f2b1045ull,
        0x8c359051dbd45965ull, 0x35cb8d2ba5dfe6c5ull, 0xd2b26db3da5ba9e5ull}},
      {Family::Grid, 144, 0, 1, 3, local,
       {0xeb34ba1622708e19ull, 0x24dc3d0e5c43ed99ull, 0xfce29c7eeeed2b43ull,
        0x33f08de52b5fa3baull, 0xca49de802c9c597aull, 0xd21231b5a0c5dd83ull}},
      {Family::BarabasiAlbert, 150, 4, 5, 2, local,
       {0xfdf86b32278f7985ull, 0xbf733bb19d52e485ull, 0x6404d30b8b8fc885ull,
        0x8d9ea38f2b563e5full, 0xcc13333bb5ab21ffull, 0x2b012753b928f5e5ull}},
      // A binding budget stretches the rounds but not what is collected,
      // so this point pins the same hashes as the first one.
      {Family::ErdosRenyi, 150, 16, 3, 2, budget2,
       {0x2cb0655c0fe8fe85ull, 0x6e2656ab2288f1a5ull, 0xe470b0f55f2b1045ull,
        0x8c359051dbd45965ull, 0x35cb8d2ba5dfe6c5ull, 0xd2b26db3da5ba9e5ull}},
  };
  const auto algs = golden_algorithms();
  for (const auto& p : points) {
    util::Xoshiro256 rng(p.graph_seed);
    const Graph g = graph::make_family(p.family, p.n, p.param, rng);
    // At these sizes the Sampler keeps every edge; Baswana–Sen (stretch
    // 2k - 1) drops some, so the broadcast runs over a proper subgraph.
    const auto bs = baseline::build_baswana_sen(g, p.spanner_k, 59);
    const auto& spanner = bs.edges;
    ASSERT_LT(spanner.size(), g.num_edges()) << g.summary();
    const double alpha = bs.stretch_bound();
    for (std::size_t i = 0; i < algs.size(); ++i) {
      const auto& alg = *algs[i];
      const auto reference = localsim::run_reference(g, alg);
      const auto rep =
          localsim::run_over_spanner(g, alg, spanner, alpha, 61, p.congest);
      EXPECT_EQ(rep.outputs, reference) << alg.name() << " " << g.summary();
      const auto radius = static_cast<unsigned>(
          std::ceil(alpha * static_cast<double>(alg.radius(g))));
      const auto broadcast =
          localsim::run_tlocal_broadcast(g, spanner, radius, 61, p.congest);
      const std::uint64_t got =
          local_output_hash(reference, rep.outputs, broadcast);
      EXPECT_EQ(got, p.hashes[i])
          << alg.name() << " on " << g.summary() << " budget="
          << (p.congest.enforced() ? p.congest.words_per_edge_per_round : 0)
          << ": local-algorithm golden moved to 0x" << std::hex << got;
    }
  }
}

}  // namespace
}  // namespace fl
