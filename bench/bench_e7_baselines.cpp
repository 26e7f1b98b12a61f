// E7 — the free lunch vs the Ω(m) baselines.
//
// The paper's conceptual table: every earlier distributed spanner
// construction sends Ω(m) messages; Sampler sends Õ(n^{1+δ+ε}). We sweep
// density at fixed n and report message counts for
//   * distributed Sampler,
//   * distributed Baswana–Sen (announce-to-all-neighbours clustering),
//   * full topology collection at a leader,
// plus round counts (Sampler and BS are O(1)-ish; collection pays Θ(D)),
// and the density at which Sampler overtakes each baseline.
#include "baseline/baswana_sen.hpp"
#include "baseline/topology_collect.hpp"
#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "graph/generators.hpp"
#include "graph/spanner_check.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace fl;
  const auto env = bench::Env::parse(argc, argv);
  const graph::NodeId n = env.quick ? 512 : 1024;

  util::Table table({"avg deg", "m", "sampler msgs", "baswana-sen msgs",
                     "collect msgs", "sampler rounds", "bs rounds",
                     "collect rounds", "sampler/bs", "sampler/collect"});

  const auto cfg = core::SamplerConfig::bench_profile(2, 3, env.seed);
  // The crossover sits where m exceeds the Sampler's Õ(n^{1+δ+ε}) bill,
  // i.e. deg ≳ n^{δ+ε}·polylog — the sweep must run into that regime.
  std::vector<double> degs{8, 32, 128, 256};
  if (!env.quick) degs.push_back(512);
  degs.push_back(static_cast<double>(n - 1));  // complete

  double crossover_bs = -1.0;
  double crossover_tc = -1.0;
  for (const double deg : degs) {
    util::Xoshiro256 rng(env.seed);
    const auto g =
        deg >= static_cast<double>(n - 1)
            ? graph::complete(n)
            : graph::erdos_renyi_gnm(
                  n, static_cast<std::size_t>(deg * n / 2), rng);
    const auto sampler = core::run_distributed_sampler(g, cfg);
    const auto bs = baseline::run_distributed_baswana_sen(g, 3, env.seed);
    const auto tc = baseline::run_topology_collect(g, 3, env.seed);
    const double rbs = static_cast<double>(sampler.stats.messages) /
                       static_cast<double>(bs.stats.messages);
    const double rtc = static_cast<double>(sampler.stats.messages) /
                       static_cast<double>(tc.stats.messages);
    if (rbs < 1.0 && crossover_bs < 0) crossover_bs = deg;
    if (rtc < 1.0 && crossover_tc < 0) crossover_tc = deg;
    table.add(deg, static_cast<std::size_t>(g.num_edges()),
              sampler.stats.messages, bs.stats.messages, tc.stats.messages,
              sampler.stats.rounds, bs.stats.rounds, tc.stats.rounds,
              util::fixed(rbs, 3), util::fixed(rtc, 3));
  }
  env.emit(table, "E7 — Sampler vs Ω(m) baselines, density sweep at fixed n");

  util::Table cross({"comparison", "crossover avg deg (sampler wins beyond)"});
  cross.add("vs Baswana-Sen",
            crossover_bs < 0 ? "not reached" : util::fixed(crossover_bs, 0));
  cross.add("vs topology collection",
            crossover_tc < 0 ? "not reached" : util::fixed(crossover_tc, 0));
  env.emit(cross, "E7 — crossover densities");

  // Quality check so the win is not bought with a broken spanner.
  util::Table quality({"construction", "|S|", "stretch bound", "max stretch",
                       "violations"});
  util::Xoshiro256 rng(env.seed + 7);
  const auto g = graph::erdos_renyi_gnm(env.quick ? 300u : 600u, 16ull * (env.quick ? 300 : 600), rng);
  {
    const auto cfgq = core::SamplerConfig::paper_faithful(2, 2, env.seed);
    const auto run = core::run_distributed_sampler(g, cfgq);
    const auto rep = graph::check_spanner_exact(g, run.edges, run.stretch_bound);
    quality.add("sampler (k=2)", run.edges.size(), run.stretch_bound,
                rep.max_edge_stretch, rep.violations);
  }
  {
    const auto bs = baseline::run_distributed_baswana_sen(g, 3, env.seed);
    const auto rep = graph::check_spanner_exact(g, bs.result.edges,
                                                bs.result.stretch_bound());
    quality.add("baswana-sen (k=3)", bs.result.edges.size(),
                bs.result.stretch_bound(), rep.max_edge_stretch,
                rep.violations);
  }
  env.emit(quality, "E7 — spanner quality cross-check");
  return 0;
}
