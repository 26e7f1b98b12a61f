// Tests for the CONGEST bandwidth-budget engine (sim/congest.hpp): budget
// validation, the deferral semantics (FIFO per directed edge,
// ceil(K/B)-round crossings, stretched-but-complete schedules), the
// closed-form calendar admission checked round by round
// against a per-round FIFO reference model, bit-determinism of budgeted
// runs across thread counts, and the words-accounting fixes the budget
// engine depends on (minimum one word per message).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/baswana_sen.hpp"
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

TEST(CongestConfig, SetCongestValidation) {
  const Graph g = graph::ring(4);
  Network net(g, 1);
  EXPECT_FALSE(net.congest().enforced());  // a Network starts LOCAL
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

// ---------------------------------------------------------- FIFO deferral

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

// ---------------------------------------- calendar vs per-round reference

/// One destination's deliveries in one round, in inbox order.
using Delivered = std::vector<std::pair<EdgeId, std::uint64_t>>;

/// One message as the reference model sees it.
struct RefMsg {
  NodeId from = 0;
  NodeId to = 0;
  EdgeId edge = 0;
  std::uint32_t words = 1;
  std::uint64_t payload = 0;
};

/// The admission rule stated the slow way: every round, walk every queued
/// message of every directed edge in FIFO order (carried first, then this
/// round's arrivals), with capacity that banks only while the edge stayed
/// blocked through the previous round. The engine instead decides each
/// message once, in closed form; the two must agree round by round.
class PerRoundFifoReference {
 public:
  PerRoundFifoReference(NodeId n, std::size_t m, std::uint64_t budget)
      : budget_(budget), edges_(2 * m), carry_(n) {}

  /// Admission for round `round`; fresh[v] holds v's arrivals in arena
  /// order. Returns each destination's delivered (edge, payload) list.
  std::vector<Delivered> admit(std::size_t round,
                               const std::vector<std::vector<RefMsg>>& fresh) {
    const std::uint64_t stamp = round + 1;
    std::vector<Delivered> out(carry_.size());
    carried_ = 0;
    for (NodeId v = 0; v < carry_.size(); ++v) {
      std::vector<RefMsg> queue = std::move(carry_[v]);
      queue.insert(queue.end(), fresh[v].begin(), fresh[v].end());
      carry_[v].clear();
      for (const RefMsg& msg : queue) {
        Edge& st = edges_[2 * msg.edge + (msg.to > msg.from ? 1 : 0)];
        if (st.stamp != stamp) {
          const bool backlogged = st.blocked && st.stamp + 1 == stamp;
          st.remaining = (backlogged ? st.remaining : 0) + budget_;
          st.blocked = false;
          st.stamp = stamp;
        }
        if (!st.blocked && st.remaining >= msg.words) {
          st.remaining -= msg.words;
          out[v].emplace_back(msg.edge, msg.payload);
        } else {
          st.blocked = true;
          carry_[v].push_back(msg);
          ++carried_;
        }
      }
    }
    deferrals_ += carried_;  // every parked message was bumped this round
    return out;
  }

  std::uint64_t carried() const { return carried_; }
  std::uint64_t deferrals() const { return deferrals_; }

 private:
  struct Edge {
    std::uint64_t remaining = 0;
    std::uint64_t stamp = 0;
    bool blocked = false;
  };
  std::uint64_t budget_;
  std::vector<Edge> edges_;
  std::vector<std::vector<RefMsg>> carry_;
  std::uint64_t carried_ = 0;
  std::uint64_t deferrals_ = 0;
};

/// Logs every send and every delivery. Sends come from a script (the
/// targeted cases) or, without one, from a seeded chatter: in each of the
/// first `active` rounds, 0..2 messages of 1..3B words per incident edge.
class OracleProbe final : public NodeProgram {
 public:
  struct Sent {
    std::size_t round;
    EdgeId edge;
    std::uint32_t words;
    std::uint64_t payload;
  };
  struct Heard {
    std::size_t round;
    EdgeId edge;
    std::uint64_t payload;
  };
  using Script = std::function<void(OracleProbe&, Context&)>;

  OracleProbe(NodeId self, unsigned active, std::uint64_t budget,
              Script script)
      : self_(self), active_(active), budget_(budget),
        script_(std::move(script)) {}

  std::vector<Sent> sent;
  std::vector<Heard> heard;

  NodeId self() const { return self_; }

  void send(Context& ctx, EdgeId e, std::uint32_t words) {
    const std::uint64_t payload =
        (std::uint64_t{self_} << 32) | static_cast<std::uint32_t>(sent.size());
    sent.push_back({ctx.round(), e, words, payload});
    ctx.send(e, payload, words);
  }

  void on_start(Context& ctx) override { act(ctx); }
  void on_round(Context& ctx, InboxView inbox) override {
    for (const auto& m : inbox)
      heard.push_back({ctx.round(), m.edge(), payload_as<std::uint64_t>(m)});
    act(ctx);
  }
  bool done() const override { return true; }

 private:
  void act(Context& ctx) {
    if (script_) {
      script_(*this, ctx);
      return;
    }
    if (ctx.round() >= active_) return;
    for (const EdgeId e : ctx.incident_edges()) {
      const unsigned count = static_cast<unsigned>(ctx.rng()() % 3);
      for (unsigned i = 0; i < count; ++i)
        send(ctx, e,
             static_cast<std::uint32_t>(1 + ctx.rng()() % (3 * budget_)));
    }
  }

  NodeId self_;
  unsigned active_;
  std::uint64_t budget_;
  Script script_;
};

/// Per round r: what the merge of round r delivered to each destination,
/// the messages parked after it, and the cumulative deferrals.
struct AdmissionTrace {
  std::vector<std::vector<Delivered>> delivered;
  std::vector<std::uint64_t> carried;
  std::vector<std::uint64_t> deferrals;
  std::vector<bool> observed;  // carried/deferrals recorded for round r
};

/// Runs the probe on the engine, stepping one round at a time (after an
/// optional run(stop_at) that stops mid-backlog), until quiescent.
AdmissionTrace run_engine(const Graph& g, std::uint64_t budget,
                          unsigned threads, unsigned active,
                          const OracleProbe::Script& script,
                          std::size_t stop_at = 0) {
  Network net(g, 5);
  net.set_parallelism(threads);
  net.set_congest(CongestConfig{budget});
  net.install([&](NodeId v) {
    return std::make_unique<OracleProbe>(v, active, budget, script);
  });
  AdmissionTrace tr;
  auto observe = [&] {
    const std::size_t r = net.round() - 1;  // the merge that just ran
    tr.carried.resize(r + 1, 0);
    tr.deferrals.resize(r + 1, 0);
    tr.observed.resize(r + 1, false);
    tr.carried[r] = net.carried_messages();
    tr.deferrals[r] = net.metrics().deferrals_total;
    tr.observed[r] = true;
  };
  if (stop_at > 0) {
    const RunStats mid = net.run(stop_at);
    EXPECT_FALSE(mid.terminated);
    EXPECT_GT(net.carried_messages(), 0u) << "stop point must hold a backlog";
    observe();
  }
  while (true) {
    net.step(1);
    observe();
    if (net.round() > active + 1 && net.carried_messages() == 0 &&
        net.metrics().messages_per_round.back() == 0)
      break;
    if (net.round() >= 100000u) {
      ADD_FAILURE() << "engine never drained";
      break;
    }
  }
  tr.delivered.assign(net.round(), std::vector<Delivered>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (const auto& h : net.program_as<OracleProbe>(v).heard)
      tr.delivered[h.round - 1][v].emplace_back(h.edge, h.payload);
  // Feed the reference the same send log, in arena order: by destination,
  // then sender id, then the sender's own send order.
  PerRoundFifoReference ref(g.num_nodes(), g.num_edges(), budget);
  for (std::size_t r = 0; r < net.round(); ++r) {
    std::vector<std::vector<RefMsg>> fresh(g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (const auto& s : net.program_as<OracleProbe>(u).sent) {
        if (s.round != r) continue;
        const auto ep = g.endpoints(s.edge);
        const NodeId to = ep.u == u ? ep.v : ep.u;
        fresh[to].push_back({u, to, s.edge, s.words, s.payload});
      }
    }
    const auto want = ref.admit(r, fresh);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      EXPECT_EQ(tr.delivered[r][v], want[v])
          << "round " << r << " destination " << v;
    if (tr.observed[r]) {
      EXPECT_EQ(tr.carried[r], ref.carried()) << "round " << r;
      EXPECT_EQ(tr.deferrals[r], ref.deferrals()) << "round " << r;
    }
  }
  EXPECT_EQ(ref.carried(), 0u) << "reference still holds a backlog";
  return tr;
}

TEST(CongestCalendar, MatchesPerRoundFifoReference) {
  util::Xoshiro256 er_rng(31), ba_rng(32);
  const Graph path = graph::path(12);
  const Graph star = graph::star(10);
  const Graph er = graph::erdos_renyi_gnm(40, 120, er_rng);
  const Graph ba = graph::barabasi_albert(40, 3, ba_rng);
  for (const Graph* g : {&path, &star, &er, &ba}) {
    for (const std::uint64_t budget : {1u, 2u, 3u, 7u}) {
      for (const unsigned threads : {1u, 8u}) {
        SCOPED_TRACE(g->summary() + " B=" + std::to_string(budget) +
                     " lanes=" + std::to_string(threads));
        const auto tr = run_engine(*g, budget, threads, 5, nullptr);
        EXPECT_GT(tr.deferrals.back(), 0u) << "the budget must bind";
      }
    }
  }
  // Stopped mid-backlog by run(), then resumed one round at a time.
  SCOPED_TRACE("stop/resume");
  run_engine(er, 2, 8, 5, nullptr, /*stop_at=*/4);
}

/// Node 0 of a path(2) sends `words[i]` words in round `rounds[i]`.
OracleProbe::Script two_node_script(std::vector<std::size_t> rounds,
                                    std::vector<std::uint32_t> words) {
  return [rounds, words](OracleProbe& me, Context& ctx) {
    if (me.self() != 0) return;
    for (std::size_t i = 0; i < rounds.size(); ++i)
      if (rounds[i] == ctx.round()) me.send(ctx, 0, words[i]);
  };
}

/// The round each of node 1's deliveries arrived in (ctx.round()).
std::vector<std::size_t> arrival_rounds(const AdmissionTrace& tr) {
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < tr.delivered.size(); ++r)
    for (std::size_t i = 0; i < tr.delivered[r][1].size(); ++i)
      out.push_back(r + 1);
  return out;
}

TEST(CongestCalendar, FreshMessageUsesTailLeftoverInTheTailsRound) {
  // B=3: a 5-word message banks 3 + 3 and is admitted in round 1 with 1
  // word to spare; a 1-word message arriving in round 1 rides on it.
  const Graph g = graph::path(2);
  const auto tr = run_engine(g, 3, 1, 2, two_node_script({0, 1}, {5, 1}));
  EXPECT_EQ(arrival_rounds(tr), (std::vector<std::size_t>{2, 2}));
}

TEST(CongestCalendar, LeftoverDroppedOnceTheEdgeStopsWaiting) {
  // B=3: the 5-word message is admitted in round 1 leaving 1 word; the
  // edge is not blocked after that, so a 4-word message sent in round 2
  // starts from a fresh 3 (not 1 + 3) and waits a round.
  const Graph g = graph::path(2);
  const auto tr = run_engine(g, 3, 1, 3, two_node_script({0, 2}, {5, 4}));
  EXPECT_EQ(arrival_rounds(tr), (std::vector<std::size_t>{2, 4}));
}

TEST(CongestCalendar, OversizedMessageQueuedBehindPartlyDrainedTail) {
  // B=2: a 5-word message is admitted in round 2 with 1 word left; a
  // 7-word message sent in round 1 waits for it, then needs
  // ceil((7 - 1) / 2) = 3 more rounds.
  const Graph g = graph::path(2);
  const auto tr = run_engine(g, 2, 1, 2, two_node_script({0, 1}, {5, 7}));
  EXPECT_EQ(arrival_rounds(tr), (std::vector<std::size_t>{3, 6}));
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
  // Lemma 12 under bandwidth: a logical round of the flood ends only once
  // nothing is parked, so under any budget the broadcast sends exactly the
  // LOCAL run's messages and words and reaches exactly B_H(v, R) — only
  // the round count grows. Inputs: G itself, and Baswana–Sen k=2 spanners
  // (the kind of subgraph the transformer floods) of ER, BA and grid
  // graphs. A never-binding budget reproduces LOCAL in rounds as well.
  struct Input {
    std::string name;
    Graph g;
    std::vector<EdgeId> edges;
    unsigned rounds;
  };
  std::vector<Input> inputs;
  util::Xoshiro256 rng(17);
  {
    Graph g = graph::erdos_renyi_gnm(60, 180, rng);
    auto edges = localsim::all_edges(g);
    inputs.push_back({"er60-G", std::move(g), std::move(edges), 3});
  }
  std::vector<std::pair<std::string, Graph>> bases;
  bases.emplace_back("er150", graph::erdos_renyi_gnm(150, 600, rng));
  bases.emplace_back("ba150", graph::barabasi_albert(150, 3, rng));
  bases.emplace_back("grid150", graph::grid(10, 15));
  for (auto& [name, g] : bases) {
    auto spanner = baseline::build_baswana_sen(g, 2, 5).edges;
    inputs.push_back({name + "-bs2", std::move(g), std::move(spanner), 4});
  }
  const std::uint64_t never_binds = std::uint64_t{1} << 40;
  for (const auto& in : inputs) {
    const auto local = localsim::run_tlocal_broadcast(in.g, in.edges,
                                                      in.rounds, 9);
    for (const std::uint64_t budget : {std::uint64_t{1}, std::uint64_t{2},
                                       std::uint64_t{8}, never_binds}) {
      SCOPED_TRACE(in.name + " budget " + std::to_string(budget));
      const auto budgeted = localsim::run_tlocal_broadcast(
          in.g, in.edges, in.rounds, 9, CongestConfig{budget});
      EXPECT_EQ(local.reached, budgeted.reached);
      EXPECT_EQ(budgeted.stats.messages, local.stats.messages);
      EXPECT_EQ(budgeted.metrics.words_total, local.metrics.words_total);
      if (budget == never_binds) {
        EXPECT_EQ(budgeted.stats.rounds, local.stats.rounds);
        EXPECT_EQ(budgeted.metrics.deferrals_total, 0u);
      } else if (budget <= 2) {
        EXPECT_GT(budgeted.stats.rounds, local.stats.rounds);
        EXPECT_GT(budgeted.metrics.deferrals_total, 0u);
      }
    }
  }
}

TEST(CongestProtocols, BroadcastBudgetedBillEqualsLocal) {
  // At budget 1 nearly every bundle is deferred, yet each node still sends
  // one bundle per edge per logical round, carrying what it learned in the
  // previous one: the bill is the LOCAL run's, 4 sending rounds × 2 × 180
  // messages. Pinned: messages and words of both runs.
  util::Xoshiro256 rng(17);
  const Graph g = graph::erdos_renyi_gnm(60, 180, rng);
  const auto edges = localsim::all_edges(g);
  const auto budgeted =
      localsim::run_tlocal_broadcast(g, edges, 4, 9, CongestConfig{1});
  const auto local = localsim::run_tlocal_broadcast(g, edges, 4, 9);
  EXPECT_GT(budgeted.metrics.deferrals_total, 0u);  // the budget binds
  EXPECT_EQ(local.metrics.deferrals_total, 0u);
  EXPECT_EQ(budgeted.reached, local.reached);
  EXPECT_EQ(budgeted.stats.messages, 1440u);
  EXPECT_EQ(budgeted.metrics.words_total, 20957u);
  EXPECT_EQ(local.stats.messages, budgeted.stats.messages);
  EXPECT_EQ(local.metrics.words_total, budgeted.metrics.words_total);
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
    EXPECT_EQ(seq.metrics.words_total, par.metrics.words_total);
    EXPECT_EQ(seq.metrics.deferrals_total, par.metrics.deferrals_total);
  }
}

}  // namespace
}  // namespace fl::sim
