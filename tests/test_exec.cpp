// Tests for the parallel round-execution engine (sim/exec.hpp): shard
// partitioning (degree-weighted, against the uniform reference), the
// FL_SIM_THREADS probe, the worker pool, and — the load-bearing contract —
// bit determinism of RunStats, Metrics and protocol outputs across thread
// counts and graph families (dense, sparse, skewed), anchored by a pinned
// golden trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "graph/generators.hpp"
#include "localsim/algorithms.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "localsim/transformer.hpp"
#include "sim/exec.hpp"
#include "sim/network.hpp"
#include "trace_hash.hpp"
#include "util/assert.hpp"

namespace fl::sim {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

// ------------------------------------------------------- partition_nodes

TEST(PartitionNodes, BalancedContiguousCover) {
  const auto shards = partition_nodes(10, 3);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0], (ShardRange{0, 4}));  // larger shards first
  EXPECT_EQ(shards[1], (ShardRange{4, 7}));
  EXPECT_EQ(shards[2], (ShardRange{7, 10}));
}

TEST(PartitionNodes, EvenSplit) {
  const auto shards = partition_nodes(8, 4);
  ASSERT_EQ(shards.size(), 4u);
  for (unsigned s = 0; s < 4; ++s)
    EXPECT_EQ(shards[s], (ShardRange{2 * s, 2 * s + 2}));
}

TEST(PartitionNodes, FewerNodesThanShards) {
  // Never more than one shard per node: n < threads collapses to n
  // singleton shards, all non-empty.
  const auto shards = partition_nodes(3, 8);
  ASSERT_EQ(shards.size(), 3u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(shards[v], (ShardRange{v, v + 1}));
}

TEST(PartitionNodes, SingleNodeAndSingleShard) {
  EXPECT_EQ(partition_nodes(1, 8), (std::vector<ShardRange>{{0, 1}}));
  EXPECT_EQ(partition_nodes(5, 1), (std::vector<ShardRange>{{0, 5}}));
  // A zero shard request clamps to one.
  EXPECT_EQ(partition_nodes(5, 0), (std::vector<ShardRange>{{0, 5}}));
}

TEST(PartitionNodes, CoversEveryNodeExactlyOnce) {
  for (const NodeId n : {1u, 2u, 7u, 64u, 1001u}) {
    for (const unsigned t : {1u, 2u, 3u, 8u, 64u}) {
      const auto shards = partition_nodes(n, t);
      NodeId expect_begin = 0;
      for (const auto& s : shards) {
        EXPECT_EQ(s.begin, expect_begin);
        EXPECT_GT(s.end, s.begin);  // non-empty
        expect_begin = s.end;
      }
      EXPECT_EQ(expect_begin, n);
      // Balanced: sizes differ by at most one.
      NodeId lo = n, hi = 0;
      for (const auto& s : shards) {
        lo = std::min(lo, s.size());
        hi = std::max(hi, s.size());
      }
      EXPECT_LE(hi - lo, 1u);
    }
  }
}

// ------------------------------------- partition_nodes (degree-weighted)

/// Contiguous, non-empty, ascending cover of [0, n) — the structural
/// invariants every weighted cut must preserve.
void expect_partition_invariants(const std::vector<ShardRange>& shards,
                                 NodeId n, unsigned requested) {
  ASSERT_FALSE(shards.empty());
  EXPECT_LE(shards.size(), std::min<std::size_t>(requested, n));
  NodeId expect_begin = 0;
  for (const auto& s : shards) {
    EXPECT_EQ(s.begin, expect_begin);
    EXPECT_GT(s.end, s.begin);
    expect_begin = s.end;
  }
  EXPECT_EQ(expect_begin, n);
}

TEST(PartitionNodesWeighted, StarHubGetsASingletonShard) {
  // Star on 12 nodes, hub first: weights deg + 1 = {12, 2, 2, ...}. The
  // hub alone carries more than 1/4 of the total weight, so with 4 shards
  // the first cut must isolate it; the leaves split the rest.
  const NodeId n = 12;
  std::vector<std::uint64_t> w(n, 2);
  w[0] = 12;
  const auto shards = partition_nodes(n, 4, w);
  expect_partition_invariants(shards, n, 4);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards[0], (ShardRange{0, 1}));  // the hub, alone
  // No leaf shard is grossly imbalanced (total leaf weight 22 over 3
  // shards → 3..4 leaves each).
  for (unsigned s = 1; s < 4; ++s) {
    EXPECT_GE(shards[s].size(), 3u);
    EXPECT_LE(shards[s].size(), 4u);
  }
}

TEST(PartitionNodesWeighted, UniformWeightsMatchUniformCuts) {
  const NodeId n = 64;
  const std::vector<std::uint64_t> w(n, 5);
  EXPECT_EQ(partition_nodes(n, 8, w), partition_nodes(n, 8));
}

TEST(PartitionNodesWeighted, FewerNodesThanShards) {
  const std::vector<std::uint64_t> w{7, 1, 3};
  const auto shards = partition_nodes(3, 8, w);
  expect_partition_invariants(shards, 3, 8);
  EXPECT_EQ(shards.size(), 3u);  // one singleton shard per node
}

TEST(PartitionNodesWeighted, AllWeightOnOneNodeStillCoversEveryNode) {
  // One node holds all the weight: it gets a singleton shard and the
  // remaining (weightless) nodes are still spread over non-empty shards —
  // the clamp never starves a trailing shard.
  for (const NodeId heavy : {NodeId{0}, NodeId{5}, NodeId{9}}) {
    std::vector<std::uint64_t> w(10, 0);
    w[heavy] = 1000;
    const auto shards = partition_nodes(10, 4, w);
    expect_partition_invariants(shards, 10, 4);
    ASSERT_EQ(shards.size(), 4u);
  }
}

TEST(PartitionNodesWeighted, CutsTrackThePrefixMarks) {
  // Ascending weights: early nodes are cheap, so early shards must take
  // more nodes than late ones; every shard's weight stays within one
  // max-weight of the ideal total/k slice.
  const NodeId n = 100;
  std::vector<std::uint64_t> w(n);
  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    w[v] = v + 1;
    total += w[v];
  }
  const unsigned k = 5;
  const auto shards = partition_nodes(n, k, w);
  expect_partition_invariants(shards, n, k);
  ASSERT_EQ(shards.size(), k);
  EXPECT_GT(shards.front().size(), shards.back().size());
  for (const auto& s : shards) {
    std::uint64_t weight = 0;
    for (NodeId v = s.begin; v < s.end; ++v) weight += w[v];
    EXPECT_LT(weight, total / k + n + 1);  // ideal slice + one max weight
  }
}

// --------------------------------------------------------------- ExecPool

TEST(ExecPool, RunsEveryLaneOncePerCall) {
  ExecPool pool(4);
  EXPECT_EQ(pool.lanes(), 4u);
  std::vector<std::atomic<int>> hits(4);
  for (int call = 0; call < 3; ++call)
    pool.run([&](unsigned lane) { ++hits[lane]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 3);
}

TEST(ExecPool, BarriersBeforeReturning) {
  // Every lane's side effect must be visible when run() returns.
  ExecPool pool(8);
  std::vector<int> out(8, 0);
  pool.run([&](unsigned lane) { out[lane] = static_cast<int>(lane) + 1; });
  for (unsigned lane = 0; lane < 8; ++lane)
    EXPECT_EQ(out[lane], static_cast<int>(lane) + 1);
}

TEST(ExecPool, PropagatesWorkerExceptions) {
  ExecPool pool(4);
  EXPECT_THROW(pool.run([](unsigned lane) {
                 if (lane == 2) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The pool stays usable after a throwing job.
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](unsigned lane) { ++hits[lane]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecPool, SingleLaneRunsInline) {
  ExecPool pool(1);
  int x = 0;
  pool.run([&](unsigned) { ++x; });
  EXPECT_EQ(x, 1);
  EXPECT_THROW(pool.run([](unsigned) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

// ------------------------------------------------- FL_SIM_THREADS probe

TEST(ParallelEnv, ThreadsProbeParsesStrictly) {
  // Outside input: anything but an integer in [1, 1024] must throw, never
  // wrap or truncate into some other lane count.
  const char* prior = std::getenv("FL_SIM_THREADS");
  struct EnvGuard {
    std::string saved;
    bool had;
    ~EnvGuard() {
      if (had) {
        setenv("FL_SIM_THREADS", saved.c_str(), 1);
      } else {
        unsetenv("FL_SIM_THREADS");
      }
    }
  } guard{prior != nullptr ? prior : "", prior != nullptr};

  unsetenv("FL_SIM_THREADS");
  EXPECT_EQ(default_parallel_config(), 1u);

  setenv("FL_SIM_THREADS", "4", 1);
  EXPECT_EQ(default_parallel_config(), 4u);

  for (const char* bad : {"0", "-2", "4x", "2000"}) {
    setenv("FL_SIM_THREADS", bad, 1);
    EXPECT_THROW(default_parallel_config(), util::ContractViolation) << bad;
  }
}

// ------------------------------------------------- network determinism

/// Chatty deterministic workload: every node records its full delivery log
/// (round, from, edge, payload) and keeps sending pseudo-random values over
/// pseudo-randomly skipped edges — exercising both send-resolution paths,
/// the per-node RNG streams, and rounds where many inboxes are empty.
class ChatterProbe final : public NodeProgram {
 public:
  ChatterProbe(NodeId self, unsigned active) : self_(self), active_(active) {}

  std::vector<std::tuple<std::size_t, NodeId, EdgeId, std::uint64_t>> heard;

  void on_start(Context& ctx) override { maybe_send(ctx); }

  void on_round(Context& ctx, InboxView inbox) override {
    for (const auto& m : inbox) {
      EXPECT_EQ(m.to(), self_);
      heard.emplace_back(ctx.round(), m.from(), m.edge(),
                         payload_as<std::uint64_t>(m));
    }
    maybe_send(ctx);
  }

  bool done() const override { return true; }  // quiesce on silence

 private:
  void maybe_send(Context& ctx) {
    if (ctx.round() >= active_) return;
    for (const EdgeId e : ctx.incident_edges()) {
      if (ctx.rng().bernoulli(0.25)) continue;  // skip → cursor misses too
      ctx.send(e, ctx.rng()());
    }
  }

  NodeId self_;
  unsigned active_;
};

struct ChatterResult {
  RunStats stats;
  Metrics metrics;
  std::vector<std::vector<std::tuple<std::size_t, NodeId, EdgeId,
                                     std::uint64_t>>> logs;
};

ChatterResult run_chatter(const Graph& g, unsigned threads,
                          CongestConfig congest = {}) {
  Network net(g, 7);
  net.set_parallelism(threads);
  net.set_congest(congest);
  net.install_all<ChatterProbe>(8u);
  ChatterResult res;
  res.stats = net.run(60);
  EXPECT_TRUE(res.stats.terminated);
  res.metrics = net.metrics();
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    res.logs.push_back(net.program_as<ChatterProbe>(v).heard);
  return res;
}

void expect_identical(const ChatterResult& a, const ChatterResult& b) {
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.terminated, b.stats.terminated);
  EXPECT_EQ(a.metrics.messages_total, b.metrics.messages_total);
  EXPECT_EQ(a.metrics.words_total, b.metrics.words_total);
  EXPECT_EQ(a.metrics.messages_per_round, b.metrics.messages_per_round);
  EXPECT_EQ(a.metrics.messages_per_node, b.metrics.messages_per_node);
  EXPECT_EQ(a.logs, b.logs);
}

TEST(ParallelNetwork, BitIdenticalAcrossThreadCountsOnEveryFamily) {
  // The determinism suite: dense (ER), sparse (tree) and skewed
  // (power-law) families, each run at 1, 2 and 8 lanes — RunStats,
  // Metrics and every per-node delivery log must be bit-identical
  // throughout.
  util::Xoshiro256 dense_rng(123), sparse_rng(124), skew_rng(125);
  const Graph dense = graph::erdos_renyi_gnm(97, 400, dense_rng);  // odd n
  const Graph sparse = graph::random_tree(101, sparse_rng);
  const Graph skewed = graph::barabasi_albert(90, 6, skew_rng);
  for (const Graph* g : {&dense, &sparse, &skewed}) {
    const auto seq = run_chatter(*g, 1);
    EXPECT_GT(seq.stats.messages, 0u);
    for (const unsigned threads : {2u, 8u})
      expect_identical(seq, run_chatter(*g, threads));
  }
}

TEST(ParallelNetwork, ChatterMatchesPinnedGoldenTrace) {
  // Golden-trace anchor (formerly the flat-vs-legacy A/B): the sequential
  // chatter run on the dense graph, hashed event by event. The thread-
  // count matrix above proves every configuration equals the sequential
  // run; this hash pins the sequential run itself to the behaviour the
  // deleted legacy engine certified. A never-binding budget runs the
  // admission pass but defers nothing, so it must hash the same.
  util::Xoshiro256 rng(123);
  const Graph g = graph::erdos_renyi_gnm(97, 400, rng);
  for (const CongestConfig congest :
       {CongestConfig{}, CongestConfig{std::uint64_t{1} << 40}}) {
    SCOPED_TRACE(congest.enforced() ? "budget 2^40" : "LOCAL");
    const auto seq = run_chatter(g, 1, congest);
    testing::TraceHash h;
    h.u64(seq.stats.rounds).u64(seq.stats.messages);
    h.u64(seq.metrics.words_total);
    for (const auto c : seq.metrics.messages_per_round) h.u64(c);
    for (const auto c : seq.metrics.messages_per_node) h.u64(c);
    for (const auto& log : seq.logs) {
      h.u64(log.size());
      for (const auto& [round, from, edge, payload] : log)
        h.u64(round).u64(from).u64(edge).u64(payload);
    }
    EXPECT_EQ(h.value(), 0xb76783e3caeb7eb4ull)
        << "chatter golden trace moved: 0x" << std::hex << h.value();
  }
}

TEST(ParallelNetwork, MoreThreadsThanNodes) {
  const Graph g = graph::ring(5);
  const auto seq = run_chatter(g, 1);
  const auto par = run_chatter(g, {8});
  expect_identical(seq, par);
}

/// A program that never sends: every round is an empty round.
class Silent final : public NodeProgram {
 public:
  explicit Silent(NodeId) {}
  void on_start(Context&) override {}
  void on_round(Context&, InboxView) override {}
  bool done() const override { return true; }
};

TEST(ParallelNetwork, EmptyRoundsTerminateUnderEveryThreadCount) {
  const Graph g = graph::ring(12);
  for (const unsigned threads : {1u, 2u, 8u}) {
    Network net(g, 1);
    net.set_parallelism(threads);
    net.install_all<Silent>();
    const RunStats stats = net.run(10);
    EXPECT_TRUE(stats.terminated);
    EXPECT_EQ(stats.messages, 0u);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      EXPECT_TRUE(net.inbox_span(v).empty());
  }
}

TEST(ParallelNetwork, ParallelismLockedOnceStarted) {
  const Graph g = graph::ring(4);
  Network net(g, 1);
  net.set_parallelism(4);
  net.install_all<Silent>();
  net.run(5);
  EXPECT_THROW(net.set_parallelism(2), util::ContractViolation);
}

/// The hub of hub_graph() first sends over each of its own edges in
/// descending id order — a private edge order, as the distributed Sampler
/// keeps — then over `last`. Every other node stays silent and records
/// what it hears.
class DescendingSweep final : public NodeProgram {
 public:
  static constexpr NodeId kHub = 7;

  DescendingSweep(NodeId self, EdgeId last) : self_(self), last_(last) {}
  std::vector<std::pair<NodeId, EdgeId>> heard;

  void on_start(Context& ctx) override {
    if (self_ != kHub) return;
    std::vector<EdgeId> mine(ctx.incident_edges().begin(),
                             ctx.incident_edges().end());
    std::sort(mine.rbegin(), mine.rend());
    for (const EdgeId e : mine) ctx.send(e, unsigned{1});
    ctx.send(last_, unsigned{2});
  }
  void on_round(Context&, InboxView inbox) override {
    for (const auto& m : inbox) heard.emplace_back(m.from(), m.edge());
  }
  bool done() const override { return true; }

 private:
  NodeId self_;
  EdgeId last_;
};

/// 8 nodes: hub 7 joined to node k by edge k (k < 7), so the hub's
/// incidence list (ascending neighbour) is in ascending edge id, plus the
/// path 0-1-...-6 on edges 7..12. A descending-id sweep from the hub
/// misses its incidence cursor on every send but one (edge 1, the
/// cursor's look-ahead slot), so almost every send resolves through the
/// endpoints fallback. One node per shard at 8 lanes: the hub is stepped
/// on worker lane 7.
Graph hub_graph() {
  Graph::Builder b(8);
  for (NodeId k = 0; k < DescendingSweep::kHub; ++k)
    b.add_edge(DescendingSweep::kHub, k);
  for (NodeId k = 0; k + 1 < DescendingSweep::kHub; ++k) b.add_edge(k, k + 1);
  return std::move(b).build();
}

TEST(ParallelNetwork, FallbackSendsResolveOrThrowFromWorkerLane) {
  const Graph g = hub_graph();
  ASSERT_EQ(g.num_edges(), 13u);
  // The sweep ending on an unknown id (= m), on edge 7 (joins nodes 0 and
  // 1, not the hub), and on the hub's own edge 3.
  const std::pair<EdgeId, const char*> cases[] = {
      {13, "send over unknown edge"},
      {7, "a node may only send over its incident edges"},
      {3, nullptr}};
  for (const auto& [last, diagnostic] : cases) {
    for (const unsigned threads : {1u, 8u}) {
      Network net(g, 1);
      net.set_parallelism(threads);
      net.install([last](NodeId v) {
        return std::make_unique<DescendingSweep>(v, last);
      });
      if (diagnostic != nullptr) {
        try {
          net.run(5);
          FAIL() << "send over edge " << last << " not rejected at threads="
                 << threads;
        } catch (const util::ContractViolation& e) {
          EXPECT_NE(std::string(e.what()).find(diagnostic), std::string::npos)
              << e.what();
        }
        continue;
      }
      // Legal: node k hears the hub on edge k, twice for k = 3.
      const RunStats stats = net.run(5);
      EXPECT_TRUE(stats.terminated);
      EXPECT_EQ(stats.messages, 8u);
      for (NodeId k = 0; k < DescendingSweep::kHub; ++k) {
        const std::vector<std::pair<NodeId, EdgeId>> want(
            k == 3 ? 2 : 1, {DescendingSweep::kHub, EdgeId{k}});
        EXPECT_EQ(net.program_as<DescendingSweep>(k).heard, want)
            << "node " << k << " threads=" << threads;
      }
    }
  }
}

// ------------------------------------- protocol outputs across threads

TEST(ParallelProtocols, SpannerEdgesInvariantUnderThreads) {
  util::Xoshiro256 rng(5);
  const Graph g = graph::erdos_renyi_gnm(120, 600, rng);
  const auto cfg = core::SamplerConfig::bench_profile(2, 2, 7);

  auto run_with_threads = [&](unsigned threads) {
    // run_distributed_sampler builds its Network internally; the engine
    // picks up FL_SIM_THREADS at construction, so thread the knob through
    // the environment exactly as a user would.
    if (threads == 1) {
      unsetenv("FL_SIM_THREADS");
    } else {
      setenv("FL_SIM_THREADS", std::to_string(threads).c_str(), 1);
    }
    auto run = core::run_distributed_sampler(g, cfg);
    unsetenv("FL_SIM_THREADS");
    return run;
  };

  const auto seq = run_with_threads(1);
  EXPECT_FALSE(seq.edges.empty());
  for (const unsigned threads : {2u, 8u}) {
    const auto par = run_with_threads(threads);
    EXPECT_EQ(seq.edges, par.edges);
    EXPECT_EQ(seq.stats.rounds, par.stats.rounds);
    EXPECT_EQ(seq.stats.messages, par.stats.messages);
    EXPECT_EQ(seq.metrics.messages_per_node, par.metrics.messages_per_node);
    EXPECT_EQ(seq.breakdown.total(), par.breakdown.total());
  }
}

TEST(ParallelProtocols, BroadcastResultsInvariantUnderThreads) {
  util::Xoshiro256 rng(17);
  const Graph g = graph::erdos_renyi_gnm(80, 240, rng);
  const auto edges = localsim::all_edges(g);

  auto run_with_threads = [&](unsigned threads) {
    if (threads == 1) {
      unsetenv("FL_SIM_THREADS");
    } else {
      setenv("FL_SIM_THREADS", std::to_string(threads).c_str(), 1);
    }
    auto run = localsim::run_tlocal_broadcast(g, edges, 3, 9);
    unsetenv("FL_SIM_THREADS");
    return run;
  };

  const auto seq = run_with_threads(1);
  for (const unsigned threads : {2u, 8u}) {
    const auto par = run_with_threads(threads);
    EXPECT_EQ(seq.reached, par.reached);
    EXPECT_EQ(seq.stats.rounds, par.stats.rounds);
    EXPECT_EQ(seq.stats.messages, par.stats.messages);
  }
}

TEST(ParallelProtocols, TransformerOutputsInvariantUnderThreads) {
  // Ball evaluation runs on the lanes too, one contiguous shard of nodes
  // per lane. Every algorithm's outputs must match the sequential run and
  // the reference at every lane count, also when lanes outnumber nodes.
  std::vector<std::unique_ptr<localsim::LocalAlgorithm>> algs;
  algs.push_back(std::make_unique<localsim::LubyMis>(5, 3));
  algs.push_back(std::make_unique<localsim::GreedyColoring>(7, 3));
  algs.push_back(std::make_unique<localsim::BfsLayers>(2));
  algs.push_back(std::make_unique<localsim::LeaderElection>(2));
  algs.push_back(std::make_unique<localsim::LocalMin>(2));
  algs.push_back(std::make_unique<localsim::MaximalMatching>(11, 3));
  util::Xoshiro256 rng(23);
  const Graph graphs[] = {graph::erdos_renyi_gnm(90, 360, rng),
                          graph::ring(5)};

  auto run_with_threads = [&](const Graph& g,
                              const localsim::LocalAlgorithm& alg,
                              unsigned threads) {
    if (threads == 1) {
      unsetenv("FL_SIM_THREADS");
    } else {
      setenv("FL_SIM_THREADS", std::to_string(threads).c_str(), 1);
    }
    auto rep = localsim::run_native(g, alg, 13);
    unsetenv("FL_SIM_THREADS");
    return rep;
  };

  for (const Graph& g : graphs) {
    for (const auto& alg : algs) {
      const auto seq = run_with_threads(g, *alg, 1);
      EXPECT_EQ(seq.outputs, localsim::run_reference(g, *alg))
          << alg->name() << " on " << g.summary();
      for (const unsigned threads : {2u, 8u}) {
        const auto par = run_with_threads(g, *alg, threads);
        EXPECT_EQ(seq.outputs, par.outputs)
            << alg->name() << " on " << g.summary() << " at " << threads;
        EXPECT_EQ(seq.rounds, par.rounds);
        EXPECT_EQ(seq.messages, par.messages);
      }
    }
  }
}

TEST(ParallelNetwork, StepInterleavingMatchesSequential) {
  // Layered protocols drive the network through step(); the parallel
  // engine must keep partial-run state identical too.
  util::Xoshiro256 rng(31);
  const Graph g = graph::erdos_renyi_gnm(50, 150, rng);

  auto run_stepped = [&](unsigned threads) {
    Network net(g, 3);
    net.set_parallelism(threads);
    net.install_all<ChatterProbe>(6u);
    net.step(4);
    net.step(4);
    const auto rounds_mid = net.round();
    net.run(60);
    std::vector<std::vector<std::tuple<std::size_t, NodeId, EdgeId,
                                       std::uint64_t>>> logs;
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      logs.push_back(net.program_as<ChatterProbe>(v).heard);
    return std::tuple{rounds_mid, net.metrics().messages_total,
                      std::move(logs)};
  };

  EXPECT_EQ(run_stepped(1), run_stepped(8));
}

}  // namespace
}  // namespace fl::sim
