// Tests for the CONGEST bandwidth-budget engine (sim/congest.hpp): the
// FL_SIM_CONGEST probe, budget validation, the carry-queue semantics
// (FIFO per directed edge, ceil(K/B)-round crossings, stretched-but-
// complete schedules), bit-determinism of budgeted runs across thread
// counts and balance modes, and the words-accounting
// fixes the budget engine depends on (minimum one word per message,
// pre-run sends).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "sim/network.hpp"
#include "util/assert.hpp"

namespace fl::sim {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

// ------------------------------------------------------- config plumbing

TEST(CongestConfig, EnvProbeParsesBudgetAndPolicy) {
  struct EnvGuard {
    ~EnvGuard() { unsetenv("FL_SIM_CONGEST"); }
  } guard;

  unsetenv("FL_SIM_CONGEST");
  EXPECT_FALSE(default_congest_config().enforced());

  setenv("FL_SIM_CONGEST", "64", 1);
  CongestConfig cfg = default_congest_config();
  EXPECT_TRUE(cfg.enforced());
  EXPECT_EQ(cfg.words_per_edge_per_round, 64u);

  // The format is the bare word count; a policy suffix is rejected.
  setenv("FL_SIM_CONGEST", "8:strict", 1);
  EXPECT_THROW(default_congest_config(), util::ContractViolation);
  setenv("FL_SIM_CONGEST", "8:defer", 1);
  EXPECT_THROW(default_congest_config(), util::ContractViolation);

  setenv("FL_SIM_CONGEST", "0", 1);
  EXPECT_THROW(default_congest_config(), util::ContractViolation);
  setenv("FL_SIM_CONGEST", "-5", 1);  // must not wrap into a huge budget
  EXPECT_THROW(default_congest_config(), util::ContractViolation);
  setenv("FL_SIM_CONGEST", "8:fast", 1);
  EXPECT_THROW(default_congest_config(), util::ContractViolation);
  setenv("FL_SIM_CONGEST", "words", 1);
  EXPECT_THROW(default_congest_config(), util::ContractViolation);
}

TEST(CongestConfig, NetworkPicksUpTheEnvironmentDefault) {
  const Graph g = graph::path(2);
  setenv("FL_SIM_CONGEST", "16", 1);
  Network net(g, 1);
  unsetenv("FL_SIM_CONGEST");
  EXPECT_TRUE(net.congest().enforced());
  EXPECT_EQ(net.congest().words_per_edge_per_round, 16u);
}

TEST(CongestConfig, SetCongestValidation) {
  const Graph g = graph::ring(4);
  Network net(g, 1);
  EXPECT_THROW(net.set_congest(CongestConfig{0}), util::ContractViolation);
  net.set_congest(CongestConfig{4});
  EXPECT_EQ(net.congest().words_per_edge_per_round, 4u);
  net.install([](NodeId) {
    class P final : public NodeProgram {
     public:
      void on_start(Context&) override {}
      void on_round(Context&, InboxView) override {}
      bool done() const override { return true; }
    };
    return std::make_unique<P>();
  });
  net.run(5);
  EXPECT_THROW(net.set_congest(CongestConfig{8}), util::ContractViolation);
}

// -------------------------------------------------- words accounting fixes

TEST(CongestWords, ZeroWordHintClampsToOneWord) {
  // A protocol that computes a zero size hint must not free-ride on the
  // words metric (or, under a budget, on the per-edge bandwidth).
  const Graph g = graph::path(2);
  Network net(g, 1);
  net.install([](NodeId v) {
    class P final : public NodeProgram {
     public:
      explicit P(NodeId self) : self_(self) {}
      void on_start(Context& ctx) override {
        if (self_ == 0) ctx.send(ctx.incident_edges()[0], 0, /*words=*/0);
      }
      void on_round(Context&, InboxView) override {}
      bool done() const override { return true; }

     private:
      NodeId self_;
    };
    return std::make_unique<P>(v);
  });
  net.run(5);
  EXPECT_EQ(net.metrics().messages_total, 1u);
  EXPECT_EQ(net.metrics().words_total, 1u);
}

TEST(CongestWords, PreRunSendsLandInWordsTotal) {
  // Regression for the two-argument pre-run Context path: words sent
  // before run() must be flushed into words_total by the first merge,
  // under any thread count.
  const Graph g = graph::path(2);
  for (const unsigned threads : {1u, 8u}) {
    Network net(g, 1);
    net.set_parallelism(threads);
    net.install([](NodeId) {
      class P final : public NodeProgram {
       public:
        void on_start(Context&) override {}
        void on_round(Context&, InboxView) override {}
        bool done() const override { return true; }
      };
      return std::make_unique<P>();
    });
    Context pre(net, 1);
    pre.send(pre.incident_edges()[0], unsigned{42}, /*words=*/7);
    pre.send(pre.incident_edges()[0], unsigned{43}, /*words=*/0);  // clamps
    const RunStats stats = net.run(5);
    EXPECT_TRUE(stats.terminated);
    EXPECT_EQ(stats.messages, 2u);
    EXPECT_EQ(net.metrics().words_total, 8u) << "threads=" << threads;
    EXPECT_EQ(net.metrics().messages_per_node[1], 2u);
  }
}

// ---------------------------------------------------- carry-queue deferral

/// Node 0 sends `count` messages of `words` words each over the single
/// edge in round 0; node 1 logs (arrival round, payload).
class WordBurst final : public NodeProgram {
 public:
  WordBurst(NodeId self, unsigned count, std::uint32_t words)
      : self_(self), count_(count), words_(words) {}

  std::vector<std::pair<std::size_t, unsigned>> got;

  void on_start(Context& ctx) override {
    if (self_ == 0)
      for (unsigned i = 1; i <= count_; ++i)
        ctx.send(ctx.incident_edges()[0], i, words_);
  }
  void on_round(Context& ctx, InboxView inbox) override {
    for (const auto& m : inbox)
      got.emplace_back(ctx.round(), payload_as<unsigned>(m));
  }
  bool done() const override { return true; }

 private:
  NodeId self_;
  unsigned count_;
  std::uint32_t words_;
};

TEST(CongestDefer, CarryDrainsInFifoOrderOneMessagePerRound) {
  // Four 2-word messages over one edge at 2 words/round: exactly one
  // message fits per round, so delivery is 1, 2, 3, 4 in rounds 1..4 —
  // the carry queue preserves send order while the schedule stretches.
  const Graph g = graph::path(2);
  Network net(g, 1);
  net.set_congest(CongestConfig{2});
  net.install_all<WordBurst>(4u, std::uint32_t{2});
  const RunStats stats = net.run(50);
  EXPECT_TRUE(stats.terminated);
  EXPECT_EQ(stats.messages, 4u);
  const auto& got = net.program_as<WordBurst>(1).got;
  ASSERT_EQ(got.size(), 4u);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i].first, i + 1u) << "message " << i;  // one per round
    EXPECT_EQ(got[i].second, i + 1u);                    // FIFO
  }
  EXPECT_EQ(net.metrics().deferrals_total, 3u + 2u + 1u);  // 3,2,1 re-queues
  EXPECT_EQ(net.carried_messages(), 0u);
}

TEST(CongestDefer, OversizedMessageCrossesInCeilWordsOverBudgetRounds) {
  // One 10-word message through a 3-word edge: capacity banks while the
  // edge is blocked (3, 6, 9, 12), so the message lands in round
  // ceil(10/3) = 4 instead of livelocking.
  const Graph g = graph::path(2);
  Network net(g, 1);
  net.set_congest(CongestConfig{3});
  net.install_all<WordBurst>(1u, std::uint32_t{10});
  const RunStats stats = net.run(50);
  EXPECT_TRUE(stats.terminated);
  const auto& got = net.program_as<WordBurst>(1).got;
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 4u);
  EXPECT_EQ(net.metrics().deferrals_total, 3u);  // bumped in rounds 0..2
}

TEST(CongestDefer, StrictlyMoreRoundsOnOverBudgetWorkload) {
  // The acceptance shape: identical workload, LOCAL vs finite budget —
  // same messages and words in the end, strictly more rounds, and the
  // per-round delivery profile visibly stretched.
  const Graph g = graph::star(6);
  auto run_once = [&](CongestConfig congest) {
    Network net(g, 3);
    net.set_congest(congest);
    net.install_all<WordBurst>(5u, std::uint32_t{4});
    const RunStats stats = net.run(200);
    EXPECT_TRUE(stats.terminated);
    return std::tuple{stats.rounds, stats.messages,
                      net.metrics().words_total,
                      net.metrics().deferrals_total};
  };
  const auto local = run_once(CongestConfig{});
  const auto budgeted = run_once(CongestConfig{4});
  EXPECT_GT(std::get<0>(budgeted), std::get<0>(local));
  EXPECT_EQ(std::get<1>(budgeted), std::get<1>(local));
  EXPECT_EQ(std::get<2>(budgeted), std::get<2>(local));
  EXPECT_EQ(std::get<3>(local), 0u);
  EXPECT_GT(std::get<3>(budgeted), 0u);
}

TEST(CongestDefer, RunCanStopAndResumeWithCarryPending) {
  // max_rounds expires while messages sit in carry queues: the run must
  // report non-termination (the carry is in-flight traffic), and a later
  // run() call must drain it.
  const Graph g = graph::path(2);
  Network net(g, 1);
  net.set_congest(CongestConfig{1});
  net.install_all<WordBurst>(6u, std::uint32_t{1});
  const RunStats mid = net.run(3);
  EXPECT_FALSE(mid.terminated);
  EXPECT_GT(net.carried_messages(), 0u);
  const RunStats done = net.run(50);
  EXPECT_TRUE(done.terminated);
  EXPECT_EQ(net.carried_messages(), 0u);
  EXPECT_EQ(done.messages, 6u);
  EXPECT_EQ(net.program_as<WordBurst>(1).got.size(), 6u);
}

// --------------------------------------- determinism across thread counts

/// Chatty multi-word workload: pseudo-random payload sizes (1..6 words)
/// over pseudo-randomly skipped edges for several rounds, so a small
/// budget defers heavily and the carry queues see mixed traffic.
class WordChatter final : public NodeProgram {
 public:
  WordChatter(NodeId self, unsigned active) : self_(self), active_(active) {}

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
      if (ctx.rng().bernoulli(0.25)) continue;
      const std::uint64_t v = ctx.rng()();
      ctx.send(e, v, static_cast<std::uint32_t>(1 + v % 6));
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

ChatterResult run_word_chatter(const Graph& g, unsigned threads,
                               CongestConfig congest) {
  Network net(g, 7);
  net.set_parallelism(threads);
  net.set_congest(congest);
  net.install_all<WordChatter>(6u);
  ChatterResult res;
  res.stats = net.run(600);
  EXPECT_TRUE(res.stats.terminated);
  res.metrics = net.metrics();
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    res.logs.push_back(net.program_as<WordChatter>(v).heard);
  return res;
}

void expect_identical(const ChatterResult& a, const ChatterResult& b) {
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.terminated, b.stats.terminated);
  EXPECT_EQ(a.metrics.messages_total, b.metrics.messages_total);
  EXPECT_EQ(a.metrics.words_total, b.metrics.words_total);
  EXPECT_EQ(a.metrics.deferrals_total, b.metrics.deferrals_total);
  EXPECT_EQ(a.metrics.messages_per_round, b.metrics.messages_per_round);
  EXPECT_EQ(a.metrics.messages_per_node, b.metrics.messages_per_node);
  EXPECT_EQ(a.logs, b.logs);
}

TEST(CongestDeterminism, DeferBitIdenticalAcrossThreadCountsOnEveryFamily) {
  // The acceptance matrix: dense, sparse and skewed families under a
  // binding budget, at 1, 2 and 8 lanes — RunStats, Metrics
  // (deferrals included) and every per-node delivery log must be
  // bit-identical, exactly like the unbudgeted engine.
  util::Xoshiro256 dense_rng(123), sparse_rng(124), skew_rng(125);
  const Graph dense = graph::erdos_renyi_gnm(97, 400, dense_rng);
  const Graph sparse = graph::random_tree(101, sparse_rng);
  const Graph skewed = graph::barabasi_albert(90, 6, skew_rng);
  for (const Graph* g : {&dense, &sparse, &skewed}) {
    const auto seq = run_word_chatter(*g, 1, CongestConfig{3});
    EXPECT_GT(seq.stats.messages, 0u);
    EXPECT_GT(seq.metrics.deferrals_total, 0u);  // the budget must bind
    for (const unsigned threads : {2u, 8u})
      expect_identical(seq, run_word_chatter(*g, threads, CongestConfig{3}));
  }
}

TEST(CongestDeterminism, NeverBindingBudgetMatchesLocalBitForBit) {
  // budget -> infinity degenerates to LOCAL: the admission pass runs (the
  // config is enforced) but defers nothing, and every observable —
  // including per-round counts and full delivery logs — matches the
  // unlimited run. The pinned golden traces stay valid by transitivity.
  util::Xoshiro256 rng(123);
  const Graph g = graph::erdos_renyi_gnm(97, 400, rng);
  const auto local = run_word_chatter(g, 1, CongestConfig{});
  const auto huge =
      run_word_chatter(g, 1, CongestConfig{std::uint64_t{1} << 40});
  expect_identical(local, huge);
  EXPECT_EQ(huge.metrics.deferrals_total, 0u);
}

// ------------------------------------------------- protocols under budget

TEST(CongestProtocols, BroadcastReachesSameSetsWithMoreRounds) {
  // Lemma 12 under bandwidth: hop-budgeted flooding must reach exactly
  // B_H(v, t) regardless of how the budget delays bundles — only the
  // round count (and possibly the message count, via re-forwards) grows.
  util::Xoshiro256 rng(17);
  const Graph g = graph::erdos_renyi_gnm(60, 180, rng);
  const auto edges = localsim::all_edges(g);
  const auto local = localsim::run_tlocal_broadcast(g, edges, 3, 9);
  const auto budgeted =
      localsim::run_tlocal_broadcast(g, edges, 3, 9, CongestConfig{2});
  EXPECT_EQ(local.reached, budgeted.reached);
  EXPECT_GT(budgeted.stats.rounds, local.stats.rounds);
  EXPECT_GE(budgeted.stats.messages, local.stats.messages);
  EXPECT_GT(budgeted.metrics.deferrals_total, 0u);
}

TEST(CongestProtocols, BroadcastReforwardDedupSavesWordsKeepsCoverage) {
  // A/B over the re-forward dedup knob. A binding budget delays some
  // bundles past the BFS-shortest arrival, so origins arrive again with a
  // *larger* remaining hop budget and get re-forwarded; with dedup the
  // improvement batch skips its arrival edge (the sender provably already
  // holds those origins at a higher budget). Coverage is untouched; the
  // words bill strictly shrinks.
  util::Xoshiro256 rng(17);
  const Graph g = graph::erdos_renyi_gnm(60, 180, rng);
  const auto edges = localsim::all_edges(g);
  const auto dedup =
      localsim::run_tlocal_broadcast(g, edges, 4, 9, CongestConfig{1});
  const auto full = localsim::run_tlocal_broadcast(
      g, edges, 4, 9, CongestConfig{1}, /*dedup_reforward=*/false);
  EXPECT_GT(full.metrics.deferrals_total, 0u);  // the budget binds
  EXPECT_EQ(dedup.reached, full.reached);
  EXPECT_LT(dedup.metrics.words_total, full.metrics.words_total);

  // In LOCAL mode improvements never occur (the first arrival rides the
  // BFS-shortest path, hence the maximal budget), so the knob must be
  // bit-invisible: same trace-relevant stats, messages, and words. Pin the
  // LOCAL runs explicitly so an FL_SIM_CONGEST env probe cannot budget them.
  const auto local_dedup =
      localsim::run_tlocal_broadcast(g, edges, 4, 9, sim::CongestConfig{});
  const auto local_full = localsim::run_tlocal_broadcast(
      g, edges, 4, 9, sim::CongestConfig{}, /*dedup_reforward=*/false);
  EXPECT_EQ(local_dedup.reached, local_full.reached);
  EXPECT_EQ(local_dedup.stats.rounds, local_full.stats.rounds);
  EXPECT_EQ(local_dedup.stats.messages, local_full.stats.messages);
  EXPECT_EQ(local_dedup.metrics.words_total, local_full.metrics.words_total);
  EXPECT_EQ(local_dedup.metrics.deferrals_total, 0u);
}

TEST(CongestProtocols, BroadcastBudgetedRunIsThreadCountInvariant) {
  util::Xoshiro256 rng(21);
  const Graph g = graph::erdos_renyi_gnm(50, 150, rng);
  const auto edges = localsim::all_edges(g);
  auto run_with_threads = [&](unsigned threads) {
    if (threads == 1) {
      unsetenv("FL_SIM_THREADS");
    } else {
      setenv("FL_SIM_THREADS", std::to_string(threads).c_str(), 1);
    }
    auto run =
        localsim::run_tlocal_broadcast(g, edges, 3, 9, CongestConfig{2});
    unsetenv("FL_SIM_THREADS");
    return run;
  };
  const auto seq = run_with_threads(1);
  for (const unsigned threads : {2u, 8u}) {
    const auto par = run_with_threads(threads);
    EXPECT_EQ(seq.reached, par.reached);
    EXPECT_EQ(seq.stats.rounds, par.stats.rounds);
    EXPECT_EQ(seq.stats.messages, par.stats.messages);
    EXPECT_EQ(seq.metrics.deferrals_total, par.metrics.deferrals_total);
  }
}

}  // namespace
}  // namespace fl::sim
