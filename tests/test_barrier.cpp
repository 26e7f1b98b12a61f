// Event-driven phase barriers — what the sampler runs whenever its
// CONGEST budget (SamplerConfig::congest) is enforced.
//
// The barrier is the merge-barrier silence predicate
// (Network::round_silent, surfaced as Context::network_silent): a phase
// ends on the first round in which the last merge delivered nothing and no
// message is parked in a congest carry queue. These tests pin the contract
// that makes it usable (docs/CONTRACTS.md C13):
//   * bit-identical delivery at every FL_SIM_THREADS, for binding and
//     never-binding budgets, across graph families;
//   * spanner output and message counts identical to the LOCAL timetable
//     (the barrier changes *when* phases start, never what they do);
//   * the predicate survives stop/resume mid-phase with live carry queues;
//   * observational tooling (FL_SIM_CHECK, FL_SIM_TRACE / contract C12)
//     stays neutral with the barrier active.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "graph/generators.hpp"
#include "sim/congest.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace fl {
namespace {

using core::SamplerConfig;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

// RAII env override (the network probes FL_SIM_* at construction).
class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() { unsetenv(name_); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
};

Graph family_graph(const std::string& family) {
  util::Xoshiro256 rng(29);
  if (family == "dense") return graph::erdos_renyi_gnm(64, 640, rng);
  if (family == "sparse") return graph::erdos_renyi_gnm(96, 150, rng);
  return graph::ensure_connected(graph::barabasi_albert(80, 6, rng), rng);
}

SamplerConfig barrier_cfg(std::uint64_t budget) {
  auto cfg = SamplerConfig::bench_profile(2, 2, 7);
  cfg.congest = sim::CongestConfig{budget};
  return cfg;
}

TEST(Barrier, BitIdenticalAcrossThreadsBudgetsAndFamilies) {
  for (const char* family : {"dense", "sparse", "skewed"}) {
    const Graph g = family_graph(family);
    for (const std::uint64_t budget :
         {std::uint64_t{2}, std::uint64_t{8}, std::uint64_t{1000000000}}) {
      const auto cfg = barrier_cfg(budget);
      core::DistributedSpannerRun base;
      for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        const EnvGuard env("FL_SIM_THREADS", std::to_string(threads));
        const auto run = core::run_distributed_sampler(g, cfg);
        ASSERT_TRUE(run.stats.terminated)
            << family << " budget=" << budget << " threads=" << threads;
        if (threads == 1) {
          base = run;
          continue;
        }
        const std::string at = std::string(family) +
                               " budget=" + std::to_string(budget) +
                               " threads=" + std::to_string(threads);
        EXPECT_EQ(run.edges, base.edges) << at;
        EXPECT_EQ(run.stats.rounds, base.stats.rounds) << at;
        EXPECT_EQ(run.stats.messages, base.stats.messages) << at;
        EXPECT_EQ(run.metrics.messages_per_round,
                  base.metrics.messages_per_round)
            << at;
        EXPECT_EQ(run.metrics.deferrals_total, base.metrics.deferrals_total)
            << at;
        EXPECT_EQ(run.metrics.words_total, base.metrics.words_total) << at;
      }
    }
  }
}

TEST(Barrier, AdaptiveMatchesFixedTimetableOutputs) {
  // The barrier only re-times phase starts; every send is drawn from the
  // same phase-indexed RNG streams, so spanner edges, message counts and
  // the role breakdown must be bit-identical to the fixed timetable of
  // the plain LOCAL run — at a binding and at a never-binding budget.
  // Only rounds may differ.
  util::Xoshiro256 rng(31);
  const Graph g = graph::erdos_renyi_gnm(96, 700, rng);

  const auto fixed_local = SamplerConfig::bench_profile(2, 2, 11);
  const auto want = core::run_distributed_sampler(g, fixed_local);

  for (const std::uint64_t budget :
       {std::uint64_t{8}, std::uint64_t{1000000000}}) {
    auto cfg = barrier_cfg(budget);
    cfg.seed = 11;
    const auto run = core::run_distributed_sampler(g, cfg);
    ASSERT_TRUE(run.stats.terminated) << "budget=" << budget;
    EXPECT_EQ(run.edges, want.edges) << "budget=" << budget;
    EXPECT_EQ(run.stats.messages, want.stats.messages) << "budget=" << budget;
    EXPECT_EQ(run.metrics.words_total, want.metrics.words_total)
        << "budget=" << budget;
    EXPECT_EQ(run.breakdown.queries, want.breakdown.queries)
        << "budget=" << budget;
    EXPECT_EQ(run.breakdown.tree_sessions, want.breakdown.tree_sessions)
        << "budget=" << budget;
    EXPECT_EQ(run.breakdown.center, want.breakdown.center)
        << "budget=" << budget;
    EXPECT_EQ(run.breakdown.control, want.breakdown.control)
        << "budget=" << budget;
  }
}

// Minimal phase-scheduled protocol over the raw barrier primitive: node 0
// pulses a multi-word message over every incident edge once per phase, the
// receivers ack, and everyone advances its phase counter on silence — the
// sampler's advancement rule without the sampler. Lets the test drive
// Network::run directly to stop mid-phase with a live carry backlog.
class PhasedPulse final : public sim::NodeProgram {
 public:
  PhasedPulse(NodeId self, unsigned phases) : self_(self), phases_(phases) {}

  void on_start(sim::Context&) override {}

  void on_round(sim::Context& ctx, sim::InboxView inbox) override {
    for (const auto& m : inbox) {
      if (m.header().size_hint_words > 1) {
        ctx.send(m.edge(), std::uint32_t{1}, 1);  // ack the pulse
      } else {
        ++acks_;
      }
    }
    if (ctx.network_silent() && consumed_ < phases_) {
      ++consumed_;
      if (self_ == 0) {
        for (const EdgeId e : ctx.incident_edges())
          ctx.send(e, std::uint32_t{consumed_}, /*size_hint_words=*/12);
      }
    }
  }

  bool done() const override { return consumed_ >= phases_; }

  unsigned consumed() const { return consumed_; }
  std::uint64_t acks() const { return acks_; }

 private:
  NodeId self_;
  unsigned phases_;
  unsigned consumed_ = 0;
  std::uint64_t acks_ = 0;
};

TEST(Barrier, SurvivesStopResumeMidPhaseWithLiveCarry) {
  // A 12-word pulse against a 2-word budget needs 6 banking rounds per
  // edge, so stopping the run early parks a real backlog. The resumed run
  // must replay to exactly the uninterrupted run's rounds, messages and
  // per-node phase counters — the silence predicate is engine state, not
  // per-run bookkeeping, so a pause must not perturb it.
  const Graph g = graph::star(12);
  const unsigned phases = 3;
  const sim::CongestConfig budget{2};

  sim::Network full(g, 5);
  full.set_congest(budget);
  full.install_all<PhasedPulse>(phases);
  const sim::RunStats want = full.run_until_drained(phases + 4);
  ASSERT_TRUE(want.terminated);
  ASSERT_GT(full.metrics().deferrals_total, 0u)
      << "the scenario under test must actually defer";

  sim::Network half(g, 5);
  half.set_congest(budget);
  half.install_all<PhasedPulse>(phases);
  sim::RunStats stats = half.run(3);
  ASSERT_FALSE(stats.terminated);
  ASSERT_GT(half.carried_messages(), 0u) << "stop point must hold a backlog";
  stats = half.run_until_drained(phases + 4);
  ASSERT_TRUE(stats.terminated);

  EXPECT_EQ(stats.rounds, want.rounds);
  EXPECT_EQ(stats.messages, want.messages);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(half.program_as<PhasedPulse>(v).consumed(),
              full.program_as<PhasedPulse>(v).consumed())
        << "node " << v;
    EXPECT_EQ(half.program_as<PhasedPulse>(v).acks(),
              full.program_as<PhasedPulse>(v).acks())
        << "node " << v;
  }
}

TEST(Barrier, OwnershipCheckerNeutralWithBarrierActive) {
  // FL_SIM_CHECK instruments every touch but must not change one bit of
  // the run — including the silence predicate's timing (contract C7/C8
  // neutrality, now with the barrier consuming merge-barrier facts).
  util::Xoshiro256 rng(37);
  const Graph g = graph::erdos_renyi_gnm(64, 400, rng);
  const auto cfg = barrier_cfg(8);
  const auto plain = core::run_distributed_sampler(g, cfg);
  core::DistributedSpannerRun checked;
  {
    const EnvGuard env("FL_SIM_CHECK", "1");
    checked = core::run_distributed_sampler(g, cfg);
  }
  EXPECT_EQ(checked.edges, plain.edges);
  EXPECT_EQ(checked.stats.rounds, plain.stats.rounds);
  EXPECT_EQ(checked.stats.messages, plain.stats.messages);
  EXPECT_EQ(checked.metrics.deferrals_total, plain.metrics.deferrals_total);
}

TEST(Barrier, TracingNeutralWithBarrierActive) {
  // Contract C12 with the barrier active: a traced adaptive run is
  // bit-identical to the untraced one. Collect-only tracing (empty path)
  // keeps the filesystem out of the test.
  util::Xoshiro256 rng(41);
  const Graph g = graph::erdos_renyi_gnm(64, 400, rng);
  const auto cfg = barrier_cfg(8);
  const auto plain = core::run_distributed_sampler(g, cfg);
  core::DistributedSpannerRun traced;
  {
    const EnvGuard env("FL_SIM_TRACE", "");
    traced = core::run_distributed_sampler(g, cfg);
  }
  EXPECT_EQ(traced.edges, plain.edges);
  EXPECT_EQ(traced.stats.rounds, plain.stats.rounds);
  EXPECT_EQ(traced.stats.messages, plain.stats.messages);
  EXPECT_EQ(traced.metrics.messages_per_round,
            plain.metrics.messages_per_round);
}

}  // namespace
}  // namespace fl
