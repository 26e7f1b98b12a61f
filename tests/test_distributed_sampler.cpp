// Tests for the distributed Sampler (paper Section 5).
//
// The distributed run must (a) produce a spanner with the Theorem 9 / Lemma
// 10 guarantees, (b) finish within its precomputed O(3^k h) schedule, and
// (c) send Õ(n^{1+δ+ε}) messages independent of |E| — all verified against
// the simulator's own metering.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "core/sampler.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/spanner_check.hpp"
#include "sim/congest.hpp"
#include "trace_hash.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace fl {
namespace {

using core::SamplerConfig;
using core::Schedule;
using graph::Graph;

TEST(Schedule, RoundBoundMatchesTheorem11) {
  // Schedule length must be O(3^k · h): concretely it is
  // sum_j [3W_j + 2h(3W_j + 2) + (4W_j + 4)] with W_j = 3^j − 1.
  for (unsigned k = 1; k <= 4; ++k) {
    for (unsigned h = 1; h <= 6; ++h) {
      const auto cfg = SamplerConfig::bench_profile(k, h, 1);
      const auto sched = Schedule::build(cfg);
      const double bound = 40.0 * SamplerConfig::pow3(k) * h;
      EXPECT_LE(static_cast<double>(sched.total_rounds), bound)
          << "k=" << k << " h=" << h;
      EXPECT_FALSE(sched.phases.empty());
      // Phases tile the timeline without gaps or overlaps.
      std::size_t cursor = 0;
      for (const auto& p : sched.phases) {
        EXPECT_EQ(p.start, cursor);
        cursor += p.length;
      }
      EXPECT_EQ(cursor, sched.total_rounds);
    }
  }
}

TEST(DistributedSampler, TerminatesWithinSchedule) {
  util::Xoshiro256 rng(3);
  const Graph g = graph::erdos_renyi_gnm(200, 1200, rng);
  // The default budget is plain LOCAL, so this checks the *fixed
  // timetable's* round bound.
  const auto cfg = SamplerConfig::paper_faithful(2, 2, 17);
  const auto run = core::run_distributed_sampler(g, cfg);
  EXPECT_TRUE(run.stats.terminated);
  const auto sched = Schedule::build(cfg);
  EXPECT_LE(run.stats.rounds, sched.total_rounds + 4);
}

TEST(DistributedSampler, SpannerValidAndConnected) {
  util::Xoshiro256 rng(5);
  const Graph g = graph::erdos_renyi_gnm(250, 2000, rng);
  const auto run =
      core::run_distributed_sampler(g, SamplerConfig::paper_faithful(2, 2, 23));
  EXPECT_TRUE(graph::is_valid_edge_subset(g, run.edges));
  const graph::SubgraphView h(g, run.edges);
  EXPECT_TRUE(h.preserves_connectivity());
}

TEST(DistributedSampler, StretchWithinTheorem9Bound) {
  util::Xoshiro256 rng(7);
  for (unsigned k = 1; k <= 2; ++k) {
    const Graph g = graph::erdos_renyi_gnm(180, 1400, rng);
    const auto cfg = SamplerConfig::paper_faithful(k, 2, 31 + k);
    const auto run = core::run_distributed_sampler(g, cfg);
    const auto rep =
        graph::check_spanner_exact(g, run.edges, cfg.stretch_bound());
    EXPECT_TRUE(rep.connected) << "k=" << k;
    EXPECT_EQ(rep.violations, 0u)
        << "k=" << k << " max " << rep.max_edge_stretch;
  }
}

TEST(DistributedSampler, StretchOnStructuredTopologies) {
  const auto cfg = SamplerConfig::paper_faithful(1, 2, 41);
  for (const Graph& g : {graph::grid(12, 12), graph::hypercube(7),
                         graph::torus(10, 10), graph::dumbbell(100, 8)}) {
    const auto run = core::run_distributed_sampler(g, cfg);
    const auto rep =
        graph::check_spanner_exact(g, run.edges, cfg.stretch_bound());
    EXPECT_TRUE(rep.connected) << g.summary();
    EXPECT_EQ(rep.violations, 0u) << g.summary();
  }
}

TEST(DistributedSampler, AgreesWithCentralizedOnGuarantees) {
  // Not bit-identical (sampling is distributed-binomial vs multinomial) but
  // both must deliver the same guarantees and similar sizes.
  util::Xoshiro256 rng(11);
  const Graph g = graph::erdos_renyi_gnm(300, 2500, rng);
  const auto cfg = SamplerConfig::paper_faithful(2, 2, 53);
  const auto central = core::build_spanner(g, cfg);
  const auto dist = core::run_distributed_sampler(g, cfg);
  const double ratio = static_cast<double>(dist.edges.size()) /
                       static_cast<double>(central.edges.size());
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(DistributedSampler, DeterministicGivenSeed) {
  util::Xoshiro256 rng(13);
  const Graph g = graph::erdos_renyi_gnm(150, 900, rng);
  const auto cfg = SamplerConfig::paper_faithful(2, 2, 61);
  const auto a = core::run_distributed_sampler(g, cfg);
  const auto b = core::run_distributed_sampler(g, cfg);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
}

TEST(DistributedSampler, MessageCountSublinearInDensity) {
  // The headline free-lunch property, now with *real* messages: density
  // x32 must not cost anywhere near x32 messages.
  util::Xoshiro256 rng(17);
  const graph::NodeId n = 512;
  const Graph sparse = graph::erdos_renyi_gnm(n, 8 * n, rng);
  const Graph dense = graph::complete(n);
  const auto cfg = SamplerConfig::bench_profile(2, 3, 71);
  const auto rs = core::run_distributed_sampler(sparse, cfg);
  const auto rd = core::run_distributed_sampler(dense, cfg);
  const double density_ratio = static_cast<double>(dense.num_edges()) /
                               static_cast<double>(sparse.num_edges());
  const double msg_ratio = static_cast<double>(rd.stats.messages) /
                           static_cast<double>(rs.stats.messages);
  EXPECT_LT(msg_ratio, 0.5 * density_ratio);
}

TEST(DistributedSampler, RoundsIndependentOfGraph) {
  // Round complexity depends only on (k, h) — identical schedules, so
  // near-identical round counts across very different graphs. A fixed-
  // timetable (LOCAL) property: under a budget the adaptive barrier makes
  // rounds a function of actual traffic, hence the graph.
  const auto cfg = SamplerConfig::paper_faithful(2, 2, 73);
  util::Xoshiro256 rng(19);
  const auto r1 = core::run_distributed_sampler(graph::ring(100), cfg);
  const auto r2 = core::run_distributed_sampler(graph::complete(100), cfg);
  const auto r3 = core::run_distributed_sampler(
      graph::erdos_renyi_gnm(100, 2000, rng), cfg);
  EXPECT_LE(r1.stats.rounds, r2.stats.rounds + 4);
  EXPECT_GE(r1.stats.rounds + 4, r2.stats.rounds);
  EXPECT_LE(r2.stats.rounds, r3.stats.rounds + 4);
  EXPECT_GE(r2.stats.rounds + 4, r3.stats.rounds);
}

TEST(DistributedSampler, BreakdownAccountsForEveryMessage) {
  // Every message is billed to exactly one role, and every QUERY gets
  // exactly one reply, so the query role is twice the queries sent — at
  // LOCAL and under a binding budget alike.
  util::Xoshiro256 rng(101);
  const Graph g = graph::erdos_renyi_gnm(200, 1600, rng);
  for (const sim::CongestConfig congest :
       {sim::CongestConfig{}, sim::CongestConfig{8}}) {
    auto cfg = SamplerConfig::paper_faithful(2, 2, 103);
    cfg.congest = congest;
    const auto run = core::run_distributed_sampler(g, cfg);
    std::uint64_t queries = 0;
    for (const auto& lt : run.levels) queries += lt.query_edges;
    EXPECT_EQ(run.breakdown.total(), run.stats.messages);
    EXPECT_EQ(run.breakdown.queries, 2 * queries);
    EXPECT_GT(run.breakdown.queries, 0u);
    EXPECT_GT(run.breakdown.tree_sessions, 0u);
  }
}

TEST(DistributedSampler, LevelDiagnosticsConsistent) {
  util::Xoshiro256 rng(23);
  const Graph g = graph::erdos_renyi_gnm(300, 3000, rng);
  const auto cfg = SamplerConfig::paper_faithful(2, 2, 83);
  const auto run = core::run_distributed_sampler(g, cfg);
  ASSERT_EQ(run.levels.size(), cfg.k + 1);
  EXPECT_EQ(run.levels[0].virtual_nodes, g.num_nodes());
  for (unsigned j = 0; j + 1 <= cfg.k; ++j) {
    const auto& lt = run.levels[j];
    EXPECT_EQ(lt.light + lt.heavy + lt.neither, lt.virtual_nodes)
        << "level " << j;
    EXPECT_EQ(run.levels[j + 1].virtual_nodes, lt.centers) << "level " << j;
  }
}

TEST(DistributedSampler, WorksOnTrees) {
  util::Xoshiro256 rng(29);
  const Graph g = graph::random_tree(120, rng);
  const auto cfg = SamplerConfig::paper_faithful(2, 2, 89);
  const auto run = core::run_distributed_sampler(g, cfg);
  // A tree's only spanner preserving connectivity is the tree itself.
  EXPECT_EQ(run.edges.size(), g.num_edges());
}

class DistributedFamilySweep
    : public ::testing::TestWithParam<graph::Family> {};

TEST_P(DistributedFamilySweep, GuaranteesHoldPerFamily) {
  util::Xoshiro256 rng(733);
  const Graph g = graph::make_family(GetParam(), 130, 0.0, rng);
  const auto cfg = SamplerConfig::paper_faithful(1, 2, 737);
  const auto run = core::run_distributed_sampler(g, cfg);
  EXPECT_TRUE(run.stats.terminated);
  ASSERT_TRUE(graph::is_valid_edge_subset(g, run.edges));
  const auto rep = graph::check_spanner_exact(g, run.edges, run.stretch_bound);
  EXPECT_TRUE(rep.connected) << graph::family_name(GetParam());
  EXPECT_EQ(rep.violations, 0u) << graph::family_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Families, DistributedFamilySweep,
    ::testing::ValuesIn(graph::all_families()),
    [](const ::testing::TestParamInfo<graph::Family>& info) {
      return graph::family_name(info.param);
    });

TEST(DistributedSampler, WorksOnTinyGraphs) {
  const auto cfg = SamplerConfig::paper_faithful(1, 1, 97);
  const Graph g = graph::path(2);
  const auto run = core::run_distributed_sampler(g, cfg);
  EXPECT_EQ(run.edges.size(), 1u);
  const Graph tri = graph::ring(3);
  const auto run3 = core::run_distributed_sampler(tri, cfg);
  EXPECT_GE(run3.edges.size(), 2u);
}

TEST(DistributedSampler, RejectsUnimplementedConfigFields) {
  // No peeling is a centralized-only ablation (build_spanner); the
  // protocol must refuse it rather than silently run the default.
  const Graph g = graph::ring(8);
  auto expect_rejected = [&](const SamplerConfig& cfg, const char* field) {
    try {
      (void)core::run_distributed_sampler(g, cfg);
      ADD_FAILURE() << field << " was accepted";
    } catch (const util::ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  auto no_peel = SamplerConfig::paper_faithful(1, 1, 3);
  no_peel.peel_parallel_edges = false;
  expect_rejected(no_peel, "peel_parallel_edges");
}

// ------------------------------------------------ output goldens (pinned)

/// One pinned Sampler run: graph family, size and parameter, generator
/// seed, (k, h), sampler seed, the delivery budget and the config preset.
struct SamplerGoldenPoint {
  graph::Family family;
  graph::NodeId n;
  double param;  ///< family parameter for make_family (0 = default)
  std::uint64_t graph_seed;
  unsigned k;
  unsigned h;
  std::uint64_t seed;
  sim::CongestConfig congest;
  std::uint64_t hash;
  /// paper_faithful's trials are so large at these sizes that nodes query
  /// their whole pool; bench_profile's draw from it, so they see its order.
  SamplerConfig (*preset)(unsigned, unsigned, std::uint64_t) =
      &SamplerConfig::paper_faithful;
};

core::DistributedSpannerRun run_golden_point(const SamplerGoldenPoint& p) {
  util::Xoshiro256 rng(p.graph_seed);
  const Graph g = graph::make_family(p.family, p.n, p.param, rng);
  auto cfg = p.preset(p.k, p.h, p.seed);
  cfg.congest = p.congest;
  return core::run_distributed_sampler(g, cfg);
}

std::string describe_point(const SamplerGoldenPoint& p) {
  std::ostringstream out;
  out << graph::family_name(p.family) << " n=" << p.n << " k=" << p.k
      << " h=" << p.h << " seed=" << p.seed << " budget="
      << (p.congest.enforced() ? p.congest.words_per_edge_per_round : 0)
      << (p.preset == &SamplerConfig::bench_profile ? " bench_profile" : "");
  return out.str();
}

/// FNV over the spanner edge ids, the four MessageBreakdown counts, the
/// round count and the metered words — the protocol's observable output.
std::uint64_t sampler_output_hash(const core::DistributedSpannerRun& run) {
  testing::TraceHash h;
  h.u64(run.edges.size());
  for (const auto e : run.edges) h.u64(e);
  h.u64(run.breakdown.queries)
      .u64(run.breakdown.tree_sessions)
      .u64(run.breakdown.center)
      .u64(run.breakdown.control);
  h.u64(run.stats.rounds).u64(run.metrics.words_total);
  return h.value();
}

/// Output golden for the distributed Sampler: any change to protocol
/// logic, sampling or delivery that moves a spanner, a message count, a
/// round count or a word count at one of these points fails here.
TEST(DistributedSamplerGolden, OutputsMatchPinnedHashes) {
  using graph::Family;
  const sim::CongestConfig local{};
  const sim::CongestConfig budget8{8};
  const SamplerGoldenPoint points[] = {
      {Family::ErdosRenyi, 256, 48, 3, 2, 2, 17, local, 0x48c9ecfd76517738ull},
      {Family::Complete, 128, 0, 1, 2, 3, 29, local, 0x4f85d606a8495168ull},
      {Family::Grid, 144, 0, 1, 1, 2, 41, local, 0x372c0dfa10b14ed5ull},
      {Family::Hypercube, 128, 0, 1, 2, 2, 43, local, 0x6fabc3cf4d817491ull},
      {Family::BarabasiAlbert, 256, 16, 5, 2, 1, 47, local,
       0x328a309776b66055ull},
      {Family::Dumbbell, 100, 0, 1, 1, 3, 53, local, 0xf095666f93097640ull},
      {Family::ErdosRenyi, 256, 48, 3, 2, 2, 17, budget8,
       0x89267c9c9069ed2dull},
      {Family::Complete, 128, 0, 1, 2, 2, 29, local, 0x9a586f435aaeeb61ull,
       &SamplerConfig::bench_profile},
  };
  for (const auto& p : points) {
    const auto run = run_golden_point(p);
    EXPECT_TRUE(run.stats.terminated);
    const std::uint64_t got = sampler_output_hash(run);
    EXPECT_EQ(got, p.hash) << describe_point(p)
                           << ": sampler golden moved to 0x" << std::hex
                           << got;
  }
}

/// FNV over every level's diagnostics: virtual graph shape, the roots'
/// Light/Heavy/Neither statuses, clustering outcomes and work counts.
std::uint64_t level_trace_hash(const core::DistributedSpannerRun& run) {
  testing::TraceHash h;
  for (const auto& lt : run.levels)
    h.u64(lt.virtual_nodes)
        .u64(lt.virtual_edges)
        .u64(lt.light)
        .u64(lt.heavy)
        .u64(lt.neither)
        .u64(lt.centers)
        .u64(lt.clustered)
        .u64(lt.unclustered)
        .u64(lt.query_edges)
        .u64(lt.spanner_added);
  return h.value();
}

/// Level-trace golden. A root's status comes from its count of live pool
/// edges, which a miscounted peel can get wrong while every spanner edge
/// and message stays put, so the output hash alone would not notice.
TEST(DistributedSamplerGolden, LevelTracesMatchPinnedHashes) {
  using graph::Family;
  const sim::CongestConfig local{};
  const sim::CongestConfig budget8{8};
  const SamplerGoldenPoint points[] = {
      {Family::ErdosRenyi, 256, 48, 3, 2, 2, 17, local, 0xa028adea23482b78ull},
      {Family::ErdosRenyi, 256, 48, 3, 2, 2, 17, budget8,
       0xa028adea23482b78ull},
      {Family::Complete, 128, 0, 1, 2, 2, 29, local, 0xaf063ddaa381ae1full,
       &SamplerConfig::bench_profile},
      {Family::ErdosRenyi, 192, 96, 3, 3, 2, 17, local, 0x36ffadd88acca992ull,
       &SamplerConfig::bench_profile},
  };
  for (const auto& p : points) {
    const auto run = run_golden_point(p);
    EXPECT_TRUE(run.stats.terminated);
    const std::uint64_t got = level_trace_hash(run);
    EXPECT_EQ(got, p.hash) << describe_point(p)
                           << ": level-trace golden moved to 0x" << std::hex
                           << got;
  }
}

}  // namespace
}  // namespace fl
