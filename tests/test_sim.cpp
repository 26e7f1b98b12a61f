// Tests for the synchronous LOCAL simulator: lockstep delivery, metering,
// incidence enforcement, termination semantics, the quiesce phase's
// done-counter contract (done() is re-read only at step time; the
// per-round check is an O(S) counter sum, never a per-node scan), and
// reactive stepping (a reactive program runs only on mail or silence).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "sim/network.hpp"
#include "trace_hash.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace fl::sim {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

/// Sends one token around a ring: node 0 starts, each holder forwards to
/// its other edge. Terminates after `hops` forwards.
class RingToken final : public NodeProgram {
 public:
  RingToken(NodeId self, unsigned hops) : self_(self), hops_(hops) {}

  unsigned received = 0;

  void on_start(Context& ctx) override {
    if (self_ == 0) ctx.send(ctx.incident_edges()[0], unsigned{1});
  }

  void on_round(Context& ctx, InboxView inbox) override {
    for (const auto& m : inbox) {
      const auto hop = payload_as<unsigned>(m);
      ++received;
      if (hop < hops_) {
        // Forward over the other edge.
        for (const EdgeId e : ctx.incident_edges())
          if (e != m.edge()) {
            ctx.send(e, hop + 1);
            break;
          }
      }
    }
  }

  bool done() const override { return true; }  // passive: quiesce on silence

 private:
  NodeId self_;
  unsigned hops_;
};

TEST(Network, TokenTravelsOneHopPerRound) {
  const Graph g = graph::ring(8);
  Network net(g, 1);
  net.install_all<RingToken>(5u);
  const auto stats = net.run(100);
  EXPECT_TRUE(stats.terminated);
  EXPECT_EQ(stats.messages, 5u);          // five forwards
  EXPECT_EQ(stats.rounds, 5u + 1);        // plus the quiescence round
}

/// Every node sends its id over every edge in round 0, then counts.
class FloodOnce final : public NodeProgram {
 public:
  explicit FloodOnce(NodeId self) : self_(self) {}
  std::vector<NodeId> heard;

  void on_start(Context& ctx) override {
    for (const EdgeId e : ctx.incident_edges()) ctx.send(e, self_);
  }
  void on_round(Context&, InboxView inbox) override {
    for (const auto& m : inbox) heard.push_back(payload_as<NodeId>(m));
  }
  bool done() const override { return true; }

 private:
  NodeId self_;
};

TEST(Network, OneRoundNeighborExchange) {
  const Graph g = graph::complete(6);
  Network net(g, 2);
  net.install_all<FloodOnce>();
  const auto stats = net.run(10);
  EXPECT_TRUE(stats.terminated);
  EXPECT_EQ(stats.messages, 2u * g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto& p = net.program_as<FloodOnce>(v);
    EXPECT_EQ(p.heard.size(), 5u);
    for (const NodeId u : p.heard) EXPECT_NE(u, v);
  }
}

TEST(Network, MetricsPerRoundAndPerNode) {
  const Graph g = graph::star(5);  // center 0, leaves 1..4
  Network net(g, 3);
  net.install_all<FloodOnce>();
  net.run(10);
  const Metrics& m = net.metrics();
  EXPECT_EQ(m.messages_total, 8u);
  ASSERT_GE(m.messages_per_round.size(), 1u);
  EXPECT_EQ(m.messages_per_round[0], 8u);  // everything in round 0
  EXPECT_EQ(m.messages_per_node[0], 4u);   // the hub
  EXPECT_EQ(m.messages_per_node[1], 1u);
  EXPECT_EQ(m.max_messages_in_a_round(), 8u);
}

TEST(Network, MaxRoundsStopsNonTerminatingRun) {
  const Graph g = graph::ring(4);
  // Ping-pong forever.
  Network net(g, 1);
  net.install([](NodeId) {
    class P final : public NodeProgram {
     public:
      void on_start(Context& ctx) override {
        ctx.send(ctx.incident_edges()[0], 0);
      }
      void on_round(Context& ctx, InboxView inbox) override {
        for (const auto& m : inbox) ctx.send(m.edge(), 0);
      }
      bool done() const override { return false; }
    };
    return std::make_unique<P>();
  });
  const auto stats = net.run(20);
  EXPECT_FALSE(stats.terminated);
  EXPECT_GE(stats.rounds, 20u);
}

/// Sends its id over every incident edge in rounds where (round + id) % 3
/// == 0, for the first `active` rounds; records everything it hears and
/// asserts its inbox span is correctly partitioned (every message is
/// addressed to itself, from a neighbouring endpoint of the edge).
class PartitionProbe final : public NodeProgram {
 public:
  PartitionProbe(NodeId self, unsigned active) : self_(self), active_(active) {}

  std::vector<std::tuple<std::size_t, NodeId, EdgeId>> heard;

  void on_start(Context& ctx) override { maybe_send(ctx); }

  void on_round(Context& ctx, InboxView inbox) override {
    for (const auto& m : inbox) {
      EXPECT_EQ(m.to(), self_);  // span partition: only own messages
      EXPECT_NE(m.from(), self_);
      heard.emplace_back(ctx.round(), m.from(), m.edge());
    }
    maybe_send(ctx);
  }

  bool done() const override { return true; }  // quiesce on silence

 private:
  void maybe_send(Context& ctx) {
    if (ctx.round() >= active_) return;
    if ((ctx.round() + self_) % 3 != 0) return;
    for (const EdgeId e : ctx.incident_edges()) ctx.send(e, self_);
  }

  NodeId self_;
  unsigned active_;
};

/// Golden-trace anchor for delivery order. This scenario used to be the
/// flat-vs-legacy A/B (the seed's per-node inbox engine, deleted after PR
/// 2/PR 3 proved the flat arena bit-identical on every workload); the
/// pinned hash below freezes exactly the behaviour that A/B certified —
/// per-node delivery logs (contents and order), RunStats, Metrics —
/// including rounds where many nodes receive nothing and the final
/// self-termination round. Any engine change that reorders or drops a
/// delivery moves the hash.
TEST(NetworkGoldenTrace, DeliveryMatchesPinnedTrace) {
  util::Xoshiro256 rng(99);
  const Graph g = graph::erdos_renyi_gnm(40, 120, rng);

  // LOCAL, and a never-binding budget: the admission pass runs but defers
  // nothing, so it must reproduce the same pinned trace.
  for (const CongestConfig congest :
       {CongestConfig{}, CongestConfig{std::uint64_t{1} << 40}}) {
    SCOPED_TRACE(congest.enforced() ? "budget 2^40" : "LOCAL");
    Network net(g, 5);
    net.set_congest(congest);
    net.install_all<PartitionProbe>(6u);
    const RunStats stats = net.run(50);
    EXPECT_TRUE(stats.terminated);
    EXPECT_EQ(stats.rounds, 7u);
    EXPECT_EQ(stats.messages, 480u);

    const Metrics& m = net.metrics();
    EXPECT_EQ(m.messages_total, 480u);
    EXPECT_EQ(m.words_total, 480u);

    testing::TraceHash h;
    h.u64(stats.rounds).u64(stats.messages).u64(m.words_total);
    for (const auto c : m.messages_per_round) h.u64(c);
    for (const auto c : m.messages_per_node) h.u64(c);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& heard = net.program_as<PartitionProbe>(v).heard;
      h.u64(heard.size());
      for (const auto& [round, from, edge] : heard)
        h.u64(round).u64(from).u64(edge);
    }
    EXPECT_EQ(h.value(), 0x6e95c71d1844b722ull)
        << "delivery golden trace moved: 0x" << std::hex << h.value();
  }
}

TEST(Network, FlatArenaHandlesZeroMessageNodesAndTermination) {
  // Star: every node floods once in round 0 and then stays silent, so the
  // hub's span holds one message per leaf, each leaf's span holds exactly
  // the hub's message, and every span is empty from round 1 until global
  // quiescence.
  const Graph g = graph::star(6);
  Network net(g, 4);
  net.install_all<FloodOnce>();
  const RunStats stats = net.run(10);
  EXPECT_TRUE(stats.terminated);
  EXPECT_EQ(stats.messages, 2u * g.num_edges());
  EXPECT_EQ(net.program_as<FloodOnce>(0).heard.size(), 5u);  // the hub
  for (NodeId v = 1; v < g.num_nodes(); ++v)
    EXPECT_EQ(net.program_as<FloodOnce>(v).heard.size(), 1u);
  // After termination every span is empty again.
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_TRUE(net.inbox_span(v).empty());
}

/// Node 0 sends four numbered payloads over the single edge in round 0.
class Burst final : public NodeProgram {
 public:
  explicit Burst(NodeId self) : self_(self) {}
  std::vector<unsigned> got;

  void on_start(Context& ctx) override {
    if (self_ == 0)
      for (unsigned i = 1; i <= 4; ++i) ctx.send(ctx.incident_edges()[0], i);
  }
  void on_round(Context&, InboxView inbox) override {
    for (const auto& m : inbox) got.push_back(payload_as<unsigned>(m));
  }
  bool done() const override { return true; }

 private:
  NodeId self_;
};

TEST(Network, FlatArenaPreservesOrderOnRepeatedSendsOverOneEdge) {
  // Several sends over the same edge in one round: the counting sort must
  // deliver all of them, in send order.
  const Graph g = graph::path(2);
  Network net(g, 1);
  net.install_all<Burst>();
  const RunStats stats = net.run(5);
  EXPECT_TRUE(stats.terminated);
  EXPECT_EQ(stats.messages, 4u);
  EXPECT_EQ(net.program_as<Burst>(1).got,
            (std::vector<unsigned>{1, 2, 3, 4}));
  EXPECT_TRUE(net.program_as<Burst>(0).got.empty());
}

TEST(Network, WordAccounting) {
  const Graph g = graph::path(2);
  Network net(g, 1);
  net.install([](NodeId v) {
    class P final : public NodeProgram {
     public:
      explicit P(NodeId self) : self_(self) {}
      void on_start(Context& ctx) override {
        if (self_ == 0) ctx.send(ctx.incident_edges()[0], 0, /*words=*/10);
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
  EXPECT_EQ(net.metrics().words_total, 10u);
}

// ------------------------------------------- quiesce phase: done counters

/// Counts its own done() invocations; reports done once it has been
/// stepped `finish_after` times. Sends nothing, so every round is
/// quiescent on the message side and termination is decided purely by the
/// done-counters. The counter is touched only by the owning shard's lane
/// (done() is re-read at step time), so it needs no synchronization even
/// under FL_SIM_THREADS > 1.
class DoneProbe final : public NodeProgram {
 public:
  DoneProbe(NodeId, unsigned finish_after) : finish_after_(finish_after) {}

  mutable std::uint64_t done_calls = 0;

  void on_start(Context&) override { ++steps_; }
  void on_round(Context&, InboxView) override { ++steps_; }
  bool done() const override {
    ++done_calls;
    return steps_ >= finish_after_;
  }

 private:
  unsigned finish_after_;
  unsigned steps_ = 0;
};

TEST(NetworkQuiesce, AllDoneNeverRescansPrograms) {
  // The engine's contract: done() is invoked exactly once per node per
  // step phase — the quiesce check sums per-lane counters and performs
  // zero per-node (virtual) work. The seed engine's all_done() scanned
  // programs_ on every message-quiet round, so on this workload (no
  // messages at all, nodes done after 4 steps) it would add up to n extra
  // done() calls per round, and n more for every run() call after
  // termination.
  const Graph g = graph::ring(9);
  Network net(g, 1);
  net.install_all<DoneProbe>(4u);
  const RunStats stats = net.run(50);
  EXPECT_TRUE(stats.terminated);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_EQ(stats.rounds, 4u);  // on_start + three on_round steps

  auto total_done_calls = [&] {
    std::uint64_t calls = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      calls += net.program_as<DoneProbe>(v).done_calls;
    return calls;
  };
  // One step phase per round, one done() re-read per node per step phase.
  EXPECT_EQ(total_done_calls(), 9u * stats.rounds);

  // Re-entering run() on a terminated network answers from the counters:
  // not a single additional done() call (the seed engine would have paid
  // another O(n) scan here).
  const RunStats again = net.run(50);
  EXPECT_TRUE(again.terminated);
  EXPECT_EQ(again.rounds, stats.rounds);
  EXPECT_EQ(total_done_calls(), 9u * stats.rounds);
}

/// Done from construction; wakes (done -> not-done) when poked and stays
/// awake for `hold` further steps — exercising both counter directions.
class Flapper final : public NodeProgram {
 public:
  Flapper(NodeId self, unsigned hold) : self_(self), hold_(hold) {}

  void on_start(Context& ctx) override {
    if (self_ == 0) ctx.send(ctx.incident_edges()[0], unsigned{1});
  }
  void on_round(Context&, InboxView inbox) override {
    if (!inbox.empty()) {
      awake_ = hold_;
    } else if (awake_ > 0) {
      --awake_;
    }
  }
  bool done() const override { return awake_ == 0; }

 private:
  NodeId self_;
  unsigned hold_;
  unsigned awake_ = 0;
};

TEST(NetworkQuiesce, DoneFlappingDelaysTermination) {
  // path(2): node 0 pokes node 1 in round 0. Node 1 goes not-done on
  // receipt (round 1) and holds for 3 more silent rounds (2, 3, 4) — the
  // done-counter must decrement on the flap and re-increment afterwards,
  // or the network would either terminate early (missed decrement) or
  // never terminate (missed re-increment).
  const Graph g = graph::path(2);
  Network net(g, 1);
  net.install_all<Flapper>(3u);
  const RunStats stats = net.run(50);
  EXPECT_TRUE(stats.terminated);
  EXPECT_EQ(stats.messages, 1u);
  // Rounds: 1 delivers the poke; 2..4 are the hold; the round-5 quiesce
  // check observes done + silence and terminates.
  EXPECT_EQ(stats.rounds, 5u);
}

TEST(NetworkQuiesce, PreRunDoneOnEdgelessGraphTerminatesImmediately) {
  // Nodes that are done from their very first step, on a graph with no
  // edges at all: the first quiesce check after on_start must terminate
  // the run, and the (empty) merge must leave every inbox span empty.
  Graph::Builder b(3);
  const Graph g = std::move(b).build();
  Network net(g, 1);
  net.install_all<DoneProbe>(0u);
  const RunStats stats = net.run(10);
  EXPECT_TRUE(stats.terminated);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.messages, 0u);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_TRUE(net.inbox_span(v).empty());
}

TEST(NetworkQuiesce, StallCapStopsAWedgedProtocol) {
  // Never done, never sends: every round after the start round is a stall
  // (silent, programs not done). run_until_drained counts them against
  // its cap; run has no stall cap and stops at its round cap instead.
  const Graph g = graph::ring(6);
  const unsigned never = ~0u;
  {
    Network net(g, 1);
    net.install_all<DoneProbe>(never);
    try {
      net.run_until_drained(3);
      FAIL() << "a wedged protocol ran past the stall cap";
    } catch (const util::ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("protocol wedged: 4 silent rounds"),
                std::string::npos) << what;
      EXPECT_NE(what.find("stall cap 3"), std::string::npos) << what;
      EXPECT_NE(what.find("at round 4"), std::string::npos) << what;
    }
  }
  Network net(g, 1);
  net.install_all<DoneProbe>(never);
  const RunStats stats = net.run(10);
  EXPECT_FALSE(stats.terminated);
  EXPECT_EQ(stats.rounds, 11u);
  EXPECT_EQ(stats.messages, 0u);
}

TEST(NetworkQuiesce, SingleNodeNetwork) {
  Graph::Builder b(1);
  const Graph g = std::move(b).build();
  Network net(g, 1);
  net.install_all<DoneProbe>(3u);
  const RunStats stats = net.run(10);
  EXPECT_TRUE(stats.terminated);
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_EQ(stats.messages, 0u);
}

// ------------------------------------------------- reactive stepping

/// Hop-limited flood waves. On every silent round each node advances its
/// wave counter and the wave's starter floods (wave, hop 0); a receiver
/// seeing a wave for the first time forwards it over its other edges
/// until kHops. Everything it does is a reaction to mail or to silence,
/// so it honours the reactive contract whatever reactive() reports; the
/// flag only decides whether the engine may skip its idle rounds. Logs
/// every step so tests can compare the rounds it ran with the rounds it
/// had mail or silence.
class Waves final : public NodeProgram {
 public:
  static constexpr unsigned kHops = 3;

  Waves(NodeId self, unsigned waves, NodeId n, bool reactive)
      : self_(self), waves_(waves), n_(n), reactive_(reactive) {}

  std::vector<std::size_t> stepped_rounds;  ///< every on_round call
  std::vector<std::size_t> mail_rounds;     ///< on_round with mail
  std::vector<std::size_t> silent_rounds;   ///< on_round on silence
  std::vector<std::tuple<std::size_t, EdgeId, std::uint64_t>> heard;

  void on_start(Context&) override {}

  void on_round(Context& ctx, InboxView inbox) override {
    stepped_rounds.push_back(ctx.round());
    if (!inbox.empty()) mail_rounds.push_back(ctx.round());
    for (const auto& m : inbox) {
      const auto word = payload_as<std::uint64_t>(m);
      heard.emplace_back(ctx.round(), m.edge(), word);
      const std::uint64_t wave = word >> 8;
      const std::uint64_t hop = word & 0xff;
      if (seen_ == wave + 1 || hop >= kHops) continue;
      seen_ = wave + 1;
      for (const EdgeId e : ctx.incident_edges())
        if (e != m.edge()) ctx.send(e, (wave << 8) | (hop + 1));
    }
    if (!ctx.network_silent()) return;
    silent_rounds.push_back(ctx.round());
    if (wave_ >= waves_) return;
    if (self_ == (wave_ * 7 + 3) % n_) {
      seen_ = wave_ + 1;
      for (const EdgeId e : ctx.incident_edges())
        ctx.send(e, std::uint64_t{wave_} << 8);
    }
    ++wave_;
  }

  bool done() const override { return wave_ >= waves_; }
  bool reactive() const override { return reactive_; }

 private:
  NodeId self_;
  unsigned waves_;
  NodeId n_;
  bool reactive_;
  unsigned wave_ = 0;
  std::uint64_t seen_ = 0;  ///< last wave seen + 1 (0 = none)
};

struct WavesRun {
  RunStats stats;
  Metrics metrics;
  std::vector<std::vector<std::size_t>> stepped, mail, silent;
  std::vector<std::vector<std::tuple<std::size_t, EdgeId, std::uint64_t>>>
      heard;
};

/// `reactive(v)` picks each node's flag.
template <typename Pick>
WavesRun run_waves(const Graph& g, unsigned threads, bool check,
                   Pick reactive) {
  Network net(g, 3);
  net.set_parallelism(threads);
  net.set_check(check);
  net.install([&](NodeId v) {
    return std::make_unique<Waves>(v, 5u, g.num_nodes(), reactive(v));
  });
  WavesRun out;
  out.stats = net.run(500);
  out.metrics = net.metrics();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto& p = net.program_as<Waves>(v);
    out.stepped.push_back(p.stepped_rounds);
    out.mail.push_back(p.mail_rounds);
    out.silent.push_back(p.silent_rounds);
    out.heard.push_back(p.heard);
  }
  return out;
}

Graph waves_graph() {
  util::Xoshiro256 rng(41);
  return graph::erdos_renyi_gnm(60, 110, rng);
}

TEST(Network, ReactiveProgramSteppedOnlyOnMailOrSilence) {
  const Graph g = waves_graph();
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const bool check : {false, true}) {
      const std::string at = "threads=" + std::to_string(threads) +
                             " check=" + std::to_string(check);
      const auto eager = run_waves(g, threads, check, [](NodeId) {
        return false;
      });
      const auto lazy = run_waves(g, threads, check, [](NodeId) {
        return true;
      });
      ASSERT_TRUE(eager.stats.terminated) << at;
      ASSERT_TRUE(lazy.stats.terminated) << at;
      // The non-reactive twin runs on_round in every round after the
      // start round.
      std::vector<std::size_t> every;
      for (std::size_t r = 1; r < eager.stats.rounds; ++r) every.push_back(r);
      std::size_t skipped = 0;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        EXPECT_EQ(eager.stepped[v], every) << at << " node " << v;
        // The reactive one exactly in its mail rounds and the silent
        // rounds (disjoint: a silent round delivered nothing).
        std::vector<std::size_t> want = lazy.mail[v];
        want.insert(want.end(), lazy.silent[v].begin(), lazy.silent[v].end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(lazy.stepped[v], want) << at << " node " << v;
        // Skipping changes nothing the node sees.
        EXPECT_EQ(lazy.mail[v], eager.mail[v]) << at << " node " << v;
        EXPECT_EQ(lazy.silent[v], eager.silent[v]) << at << " node " << v;
        EXPECT_EQ(lazy.heard[v], eager.heard[v]) << at << " node " << v;
        skipped += eager.stepped[v].size() - lazy.stepped[v].size();
      }
      EXPECT_GT(skipped, 0u) << at << ": the waves must leave idle rounds";
      EXPECT_EQ(lazy.stats.rounds, eager.stats.rounds) << at;
      EXPECT_EQ(lazy.metrics.messages_per_round,
                eager.metrics.messages_per_round)
          << at;
      EXPECT_EQ(lazy.metrics.messages_per_node, eager.metrics.messages_per_node)
          << at;
    }
  }
}

TEST(Network, MixedReactiveNetworkDeliversLikeAllNonReactive) {
  // Alternate nodes reactive: each shard's step list interleaves its
  // recipients with its non-reactive nodes, and delivery (contents and
  // per-inbox order) must match the run that steps everyone.
  const Graph g = waves_graph();
  const auto base = run_waves(g, 1, false, [](NodeId) { return false; });
  ASSERT_TRUE(base.stats.terminated);
  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto mixed = run_waves(g, threads, false, [](NodeId v) {
      return v % 2 == 0;
    });
    EXPECT_EQ(mixed.heard, base.heard) << "threads=" << threads;
    EXPECT_EQ(mixed.stats.rounds, base.stats.rounds) << "threads=" << threads;
    EXPECT_EQ(mixed.metrics.messages_per_round,
              base.metrics.messages_per_round)
        << "threads=" << threads;
    for (NodeId v = 1; v < g.num_nodes(); v += 2)
      EXPECT_EQ(mixed.stepped[v], base.stepped[v])
          << "threads=" << threads << " node " << v;
  }
}

}  // namespace
}  // namespace fl::sim
