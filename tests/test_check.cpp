// Tests for the FL_SIM_CHECK logical ownership / phase checker
// (sim/check.hpp). The load-bearing claims:
//
//   * clean runs are bit-identical with checking on — the checker is
//     purely observational, at every thread count, congest on or off;
//   * a seeded cross-shard write is caught deterministically on one core
//     (no data race needs to manifest), with a diagnostic naming the node,
//     the owning lane, the touching lane, the phase and the round;
//   * a seeded out-of-phase carry-queue mutation is caught the same way;
//   * the deliberately unchecked window (post-run extraction) stays legal.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/generators.hpp"
#include "sim/check.hpp"
#include "sim/network.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace fl::sim {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

// A small deterministic chatterer: every node floods a word over each
// incident edge for `active` rounds, drawing from its RNG stream so the
// rng-touch instrumentation is exercised, with a size hint that makes a
// finite CONGEST budget bind (carry queues in play under budget 4).
class Chatter final : public NodeProgram {
 public:
  Chatter(NodeId self, unsigned active) : self_(self), active_(active) {}

  std::uint64_t digest = 0;

  void on_start(Context& ctx) override { maybe_send(ctx); }

  void on_round(Context& ctx, InboxView inbox) override {
    for (const auto& m : inbox) {
      digest = digest * 1099511628211ull ^ payload_as<std::uint64_t>(m);
      digest ^= m.from() + 31 * m.edge();
    }
    maybe_send(ctx);
  }

  bool done() const override { return true; }  // quiesce on silence

 private:
  void maybe_send(Context& ctx) {
    if (ctx.round() >= active_) return;
    for (const EdgeId e : ctx.incident_edges())
      ctx.send(e, ctx.rng()(), /*size_hint_words=*/8);
  }

  NodeId self_;
  unsigned active_;
};

Graph test_graph(NodeId n) {
  util::Xoshiro256 rng(99);
  return graph::erdos_renyi_gnm(n, 3 * n, rng);
}

std::uint64_t run_digest(unsigned threads, bool check, bool budget) {
  const Graph g = test_graph(64);
  Network net(g, /*seed=*/7);
  net.set_parallelism(threads);
  net.set_check(check);
  if (budget) net.set_congest({4});
  net.install_all<Chatter>(4u);
  const RunStats stats = net.run_until_drained(64);
  EXPECT_TRUE(stats.terminated);
  if (budget) {
    EXPECT_GT(net.metrics().deferrals_total, 0u);
  }
  std::uint64_t digest = stats.rounds;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    digest = digest * 16777619 ^ net.program_as<Chatter>(v).digest;
  return digest;
}

// ------------------------------------------------- observational neutrality

TEST(CheckClean, BitIdenticalWithCheckingOn) {
  // The checker must never perturb a clean run: same digest with checking
  // on and off, at 1 and 8 lanes, LOCAL and with a binding carry-exercising
  // budget (which also proves the admit/merge-phase instrumentation accepts
  // every legal touch).
  for (const bool budget : {false, true}) {
    const std::uint64_t base = run_digest(1, /*check=*/false, budget);
    for (const unsigned threads : {1u, 8u}) {
      EXPECT_EQ(run_digest(threads, /*check=*/true, budget), base)
          << "threads=" << threads << " budget=" << budget;
    }
  }
}

TEST(CheckClean, SetCheckOnlyBeforeStart) {
  const Graph g = test_graph(8);
  Network net(g, 1);
  net.set_check(true);
  net.set_check(false);  // toggling is fine before the run
  net.set_check(true);
  net.install_all<Chatter>(1u);
  net.run(8);
  EXPECT_THROW(net.set_check(false), util::ContractViolation);
}

TEST(CheckClean, PostRunExtractionUnchecked) {
  // The one deliberate window outside any lane scope: post-run mutating
  // extraction.
  const Graph g = test_graph(8);
  Network net(g, 1);
  net.set_parallelism(8);
  net.set_check(true);
  net.install_all<Chatter>(1u);
  net.run(16);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    net.program_as<Chatter>(v).digest = 0;  // foreign-thread write: legal
}

// ------------------------------------------------- seeded violations

TEST(CheckViolations, CrossShardWriteCaughtAtOneAndEightLanes) {
  // The debug hook binds a synthetic step-phase scope to a chosen lane, so
  // the cross-shard-write diagnostic is provable even at one lane (where no
  // second shard exists to touch from organically).
  for (const unsigned threads : {1u, 8u}) {
    const Graph g = test_graph(64);
    Network net(g, 7);
    net.set_parallelism(threads);
    net.set_check(true);
    net.install_all<Chatter>(2u);
    net.step(1);
    const unsigned owner = threads == 1 ? 0u : 7u;  // node 63's shard
    const unsigned wrong = owner + 1;
    try {
      net.debug_touch_node(63, wrong);
      FAIL() << "seeded cross-shard write not caught at threads=" << threads;
    } catch (const CheckViolation& v) {
      EXPECT_EQ(v.node, 63u);
      EXPECT_EQ(v.owner_lane, owner);
      EXPECT_EQ(v.touch_lane, wrong);
      EXPECT_EQ(v.phase, EnginePhase::Step);
    }
  }
}

TEST(CheckViolations, OutOfPhaseCarryMutationCaughtAtOneAndEightLanes) {
  // Carry queues belong to the admission phase; a step-phase mutation —
  // even by the chunk's own lane — must throw naming the phase.
  for (const unsigned threads : {1u, 8u}) {
    const Graph g = test_graph(64);
    Network net(g, 7);
    net.set_parallelism(threads);
    net.set_check(true);
    net.set_congest({1000000000});  // chunks exist
    net.install_all<Chatter>(4u);
    net.set_check_probe([](Network& n, unsigned lane) {
      if (lane != 0) return;
      n.debug_mutate_carry(0);  // own chunk, wrong phase
    });
    try {
      net.run(16);
      FAIL() << "out-of-phase carry mutation not caught at threads="
             << threads;
    } catch (const CheckViolation& v) {
      EXPECT_EQ(v.node, graph::kInvalidNode);
      EXPECT_EQ(v.owner_lane, 0u);
      EXPECT_EQ(v.touch_lane, 0u);
      EXPECT_EQ(v.phase, EnginePhase::Step);
      const std::string what = v.what();
      EXPECT_NE(what.find("carry queue"), std::string::npos);
      EXPECT_NE(what.find("admit-phase"), std::string::npos);
    }
  }
}

TEST(CheckViolations, DiagnosticNamesEveryCoordinate) {
  // The what() string is the human surface: node, lanes, phase and round
  // must all be present (tooling greps for them).
  const Graph g = test_graph(64);
  Network net(g, 7);
  net.set_parallelism(8);
  net.set_check(true);
  net.install_all<Chatter>(2u);
  net.step(3);
  try {
    net.debug_touch_node(63, 2);
    FAIL() << "seeded violation not caught";
  } catch (const CheckViolation& v) {
    const std::string what = v.what();
    EXPECT_NE(what.find("FL_SIM_CHECK"), std::string::npos);
    EXPECT_NE(what.find("node 63"), std::string::npos);
    EXPECT_NE(what.find("owned by lane 7"), std::string::npos);
    EXPECT_NE(what.find("touched by lane 2"), std::string::npos);
    EXPECT_NE(what.find("step phase"), std::string::npos);
    EXPECT_NE(what.find("round"), std::string::npos);
  }
}

}  // namespace
}  // namespace fl::sim
