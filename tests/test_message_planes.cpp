// Tests for the structure-of-arrays message storage (sim/message.hpp) and
// the engine guarantees built on it: sticky plane capacity, zero-allocation
// steady-state rounds (LOCAL and budgeted), and arena reuse across
// stop/resume with carry queues.
#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace fl::sim {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

MessageHeader header(EdgeId e, NodeId from, NodeId to, std::uint32_t words = 1) {
  MessageHeader h;
  h.edge = e;
  h.from = from;
  h.to = to;
  h.size_hint_words = words;
  return h;
}

// ------------------------------------------------------- plane container

TEST(MessagePlanes, CapacityIsStickyAcrossClearAndResize) {
  MessagePlanes planes;
  planes.reserve(64);
  const std::size_t cap = planes.capacity();
  const std::uint64_t allocs = planes.allocations();
  EXPECT_GE(cap, 64u);
  for (int round = 0; round < 5; ++round) {
    for (std::uint32_t i = 0; i < 64; ++i)
      planes.push_back(header(i, 0, 1), Payload(i));
    planes.clear();
  }
  planes.resize(64);
  planes.resize(8);
  EXPECT_EQ(planes.capacity(), cap);
  EXPECT_EQ(planes.allocations(), allocs) << "steady reuse must not grow";
}

TEST(MessagePlanes, AllocationsCountsGrowthEventsOnce) {
  MessagePlanes planes;
  EXPECT_EQ(planes.allocations(), 0u);
  planes.push_back(header(0, 0, 1), Payload(1u));
  EXPECT_GE(planes.allocations(), 1u);
  const std::uint64_t after_first = planes.allocations();
  // Fill to capacity without growing: the counter must not move.
  while (planes.size() < planes.capacity())
    planes.push_back(header(0, 0, 1), Payload(1u));
  EXPECT_EQ(planes.allocations(), after_first);
  planes.push_back(header(0, 0, 1), Payload(1u));  // forces one growth
  EXPECT_EQ(planes.allocations(), after_first + 1);
}

TEST(MessagePlanes, SwapExchangesBuffersAndCounters) {
  MessagePlanes a;
  MessagePlanes b;
  a.push_back(header(7, 1, 2), Payload(11u));
  const std::uint64_t a_allocs = a.allocations();
  a.swap(b);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.allocations(), 0u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.header(0).edge, 7u);
  EXPECT_EQ(b.allocations(), a_allocs);
  EXPECT_EQ(payload_as<std::uint32_t>(b.view(0)), 11u);
}

TEST(MessagePlanes, RangeZipsBothPlanesInOrder) {
  MessagePlanes planes;
  for (std::uint32_t i = 0; i < 8; ++i)
    planes.push_back(header(i, i, i + 1), Payload(100 + i));
  const InboxView inbox = planes.range(2, 6);
  ASSERT_EQ(inbox.size(), 4u);
  EXPECT_FALSE(inbox.empty());
  EXPECT_EQ(inbox.front().edge(), 2u);
  std::uint32_t expect = 2;
  for (const auto& m : inbox) {
    EXPECT_EQ(m.edge(), expect);
    EXPECT_EQ(m.from(), expect);
    EXPECT_EQ(m.to(), expect + 1);
    EXPECT_EQ(payload_as<std::uint32_t>(m), 100 + expect);
    ++expect;
  }
  EXPECT_EQ(expect, 6u);
}

// A view is a pair of pointers into the planes: in-place mutation of the
// planes is visible through an existing view (the flip side of the
// documented rule that views die when the planes reallocate or rebuild).
TEST(MessagePlanes, ViewReflectsInPlaceMutation) {
  MessagePlanes planes;
  planes.reserve(2);
  planes.push_back(header(1, 0, 1), Payload(5u));
  const MessageView m = planes.view(0);
  planes.header(0).edge = 9;
  planes.payload(0) = Payload(6u);
  EXPECT_EQ(m.edge(), 9u);
  EXPECT_EQ(payload_as<std::uint32_t>(m), 6u);
}

// --------------------------------------------- zero-allocation steady state

/// Flood driver: every node re-sends one word over every incident edge for
/// `rounds` send-rounds.
class Flood final : public NodeProgram {
 public:
  Flood(NodeId self, unsigned rounds, std::uint32_t words = 1,
        bool burst = false)
      : self_(self), rounds_(rounds), words_(words), burst_(burst) {}

  void on_start(Context& ctx) override {
    send_all(ctx);
    if (burst_) send_all(ctx);  // extra round-0 copy: a permanent backlog
    sent_ = 1;
  }
  void on_round(Context& ctx, InboxView inbox) override {
    for (const auto& m : inbox) sum_ += payload_as<NodeId>(m);
    if (sent_ < rounds_) {
      send_all(ctx);
      ++sent_;
    }
  }
  bool done() const override { return sent_ >= rounds_; }

  std::uint64_t sum() const { return sum_; }

 private:
  void send_all(Context& ctx) {
    for (const EdgeId e : ctx.incident_edges()) ctx.send(e, self_, words_);
  }
  NodeId self_;
  unsigned rounds_;
  std::uint32_t words_ = 1;
  bool burst_ = false;
  unsigned sent_ = 0;
  std::uint64_t sum_ = 0;
};

Graph test_graph(NodeId n = 400) {
  util::Xoshiro256 rng(99);
  return graph::erdos_renyi_gnm(n, 4ull * n, rng);
}

TEST(PlaneReuse, SteadyStateRoundsAllocateNothing) {
  const Graph g = test_graph();
  Network net(g, 7);
  net.install_all<Flood>(12u);
  // Two rounds of warm-up reach the steady frontier (every round after the
  // first delivers exactly 2m messages); from there the sticky-capacity
  // contract says no plane may ever grow again.
  net.step(3);
  const std::uint64_t warm = net.debug_plane_allocations();
  net.step(8);
  EXPECT_EQ(net.debug_plane_allocations(), warm)
      << "a steady-state LOCAL round reallocated a message plane";
}

TEST(PlaneReuse, SteadyStateBudgetedRoundsAllocateNothing) {
  const Graph g = test_graph();
  Network net(g, 7);
  // Injection rate == service rate (1 word per edge per round, both ways),
  // plus a round-0 burst the budget can never catch up on: every round
  // defers one message per directed edge into the carry queue and admits
  // one out of it — a true steady state with the carry path *active*.
  net.set_congest({1});
  net.install_all<Flood>(16u, 1u, /*burst=*/true);
  net.step(4);
  const std::uint64_t warm = net.debug_plane_allocations();
  ASSERT_GT(net.carried_messages(), 0u)
      << "the steady state under test must keep the carry queues non-empty";
  net.step(8);
  ASSERT_GT(net.carried_messages(), 0u);
  EXPECT_EQ(net.debug_plane_allocations(), warm)
      << "a steady-state budgeted round reallocated a carry/admitted plane";
}

// --------------------------------------------------- stop/resume with carry

TEST(PlaneReuse, StopResumeWithCarryQueuesMatchesUninterruptedRun) {
  const Graph g = test_graph(200);
  const unsigned rounds = 6;
  const std::uint64_t budget = 1;

  auto flood_sum = [](Network& net) {
    std::uint64_t s = 0;
    for (NodeId v = 0; v < net.graph().num_nodes(); ++v)
      s += net.program_as<Flood>(v).sum();
    return s;
  };

  // Reference: one uninterrupted budgeted run.
  Network full(g, 3);
  full.set_congest({budget});
  full.install_all<Flood>(rounds, 3u);  // 3 words vs 1-word budget: backlog
  const RunStats want = full.run_until_drained(64);
  ASSERT_TRUE(want.terminated);

  // Same run stopped mid-backlog (carry queues non-empty) and resumed: the
  // carry planes must survive the pause intact and keep their storage.
  Network half(g, 3);
  half.set_congest({budget});
  half.install_all<Flood>(rounds, 3u);
  RunStats stats = half.run(4);
  ASSERT_FALSE(stats.terminated);
  ASSERT_GT(half.carried_messages(), 0u) << "stop point must hold a backlog";
  const std::uint64_t paused_allocs = half.debug_plane_allocations();
  stats = half.run_until_drained(64);
  ASSERT_TRUE(stats.terminated);

  EXPECT_EQ(stats.rounds, want.rounds);
  EXPECT_EQ(stats.messages, want.messages);
  EXPECT_EQ(flood_sum(half), flood_sum(full));
  EXPECT_EQ(half.debug_plane_allocations(), paused_allocs)
      << "resume must reuse the paused run's planes, not reallocate";
}

// ------------------------------------------- determinism across thread/budget

TEST(PlaneReuse, RunIsBitIdenticalAcrossThreadsAndBudgets) {
  const Graph g = test_graph();
  for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{2}}) {
    RunStats base;
    std::uint64_t base_sum = 0;
    std::vector<std::uint64_t> base_per_round;
    for (const unsigned threads : {1u, 2u, 8u}) {
      Network net(g, 11);
      net.set_parallelism(threads);
      if (budget > 0) net.set_congest({budget});
      net.install_all<Flood>(6u);
      const RunStats stats = net.run_until_drained(64);
      ASSERT_TRUE(stats.terminated);
      std::uint64_t sum = 0;
      for (NodeId v = 0; v < g.num_nodes(); ++v)
        sum += net.program_as<Flood>(v).sum();
      if (threads == 1) {
        base = stats;
        base_sum = sum;
        base_per_round = net.metrics().messages_per_round;
      } else {
        EXPECT_EQ(stats.rounds, base.rounds) << "threads=" << threads;
        EXPECT_EQ(stats.messages, base.messages) << "threads=" << threads;
        EXPECT_EQ(sum, base_sum) << "threads=" << threads;
        EXPECT_EQ(net.metrics().messages_per_round, base_per_round)
            << "threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace fl::sim
