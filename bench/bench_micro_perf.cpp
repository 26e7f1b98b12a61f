// Micro timing benchmarks: wall-clock throughput of the simulator's round
// engine. These measure *our implementation's* speed, not the paper's model
// quantities — the model quantities live in bench_e1..e10.
//
// Four sections, each one util::Table printed through bench::Env::emit:
//   * the delivery-throughput sweep (default, or --delivery): sequential vs
//     `--threads N` execution lanes, across dense, sparse and skewed
//     (power-law) graph families;
//   * --congest: the CONGEST budget sweep, LOCAL vs budgeted rounds;
//   * --capacity: the n=1M–10M tree flood under a peak-RSS ceiling;
//   * --profile: a traced flood's per-round phase and lane timeline.
// Each section exits nonzero when the contract it reports on breaks.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace fl;

// ------------------------------------------------- delivery throughput

/// Traffic driver: every node re-broadcasts a word over every incident edge
/// for `rounds` rounds, so each round delivers exactly 2m messages. The
/// per-round work is dominated by the simulator's enqueue + delivery path —
/// the quantity this sweep measures. `words` sets the self-reported message
/// size (default 1): the congest sweep sends multi-word messages so a
/// finite per-edge budget actually binds.
class FloodRounds final : public sim::NodeProgram {
 public:
  FloodRounds(graph::NodeId self, unsigned rounds, std::uint32_t words = 1)
      : self_(self), rounds_(rounds), words_(words) {}

  void on_start(sim::Context& ctx) override {
    send_all(ctx);
    sent_ = 1;
  }

  void on_round(sim::Context& ctx, sim::InboxView inbox) override {
    for (const auto& m : inbox) checksum_ += sim::payload_as<graph::NodeId>(m);
    if (sent_ < rounds_) {
      send_all(ctx);
      ++sent_;
    }
  }

  bool done() const override { return sent_ >= rounds_; }

  std::uint64_t checksum() const { return checksum_; }

 private:
  void send_all(sim::Context& ctx) {
    for (const graph::EdgeId e : ctx.incident_edges())
      ctx.send(e, self_, words_);
  }

  graph::NodeId self_;
  unsigned rounds_;
  std::uint32_t words_ = 1;
  unsigned sent_ = 0;
  std::uint64_t checksum_ = 0;
};

struct DeliveryResult {
  sim::RunStats stats;
  std::uint64_t checksum = 0;
  double seconds = 0.0;

  double msgs_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(stats.messages) / seconds : 0.0;
  }
};

DeliveryResult run_delivery(const graph::Graph& g, unsigned rounds,
                            std::uint64_t seed, unsigned threads = 1) {
  sim::Network net(g, seed);
  net.set_parallelism(threads);
  net.install_all<FloodRounds>(rounds);
  // Timed region = net.run() only: the full phase pipeline (step shards,
  // merge lanes, quiesce checks) including any storage growth inside the
  // run. Network construction and program install are identical across
  // configurations and excluded.
  DeliveryResult res;
  util::Timer timer;
  res.stats = net.run(static_cast<std::size_t>(rounds) + 4);
  res.seconds = timer.seconds();
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
    res.checksum += net.program_as<FloodRounds>(v).checksum();
  return res;
}

/// Best-of-7 timing of the sequential engine (`flat`) and of `threads`
/// execution lanes (`flat_mt`), interleaving the runs so machine drift hits
/// both sides equally.
void best_of_pair(const graph::Graph& g, unsigned rounds, std::uint64_t seed,
                  unsigned threads, DeliveryResult& flat,
                  DeliveryResult& flat_mt) {
  const int reps = 7;
  for (int r = 0; r < reps; ++r) {
    const DeliveryResult one = run_delivery(g, rounds, seed);
    const DeliveryResult many = run_delivery(g, rounds, seed, threads);
    if (r == 0 || one.seconds < flat.seconds) flat = one;
    if (r == 0 || many.seconds < flat_mt.seconds) flat_mt = many;
  }
}

int run_delivery_bench(const bench::Env& env, unsigned threads) {
  // Two send-rounds per run matches the repo's workloads: tlocal_broadcast
  // (E8 sweeps t ∈ {1, 2, 4}) builds a fresh Network per short protocol
  // run, so first-round storage growth is not amortized over a long run —
  // that churn is part of what delivery throughput means here.
  //
  // Three families: dense (ER, avg degree 16), sparse (random tree), and
  // skewed (Barabási–Albert, avg degree ≈ 16 with power-law hubs) — the
  // skewed rows put the degree-weighted shard cuts under power-law hubs,
  // where equal node counts per shard would leave lanes unbalanced.
  const unsigned rounds = 2;
  std::vector<graph::NodeId> sizes{1000, 10000, 100000};
  if (env.quick) sizes = {1000, 10000};

  util::Table table({"n", "family", "edges", "rounds", "messages", "threads",
                     "flat Mmsg/sec", "flat@T Mmsg/sec", "mt_over_flat",
                     "stats match?"});
  bool all_match = true;
  for (const graph::NodeId n : sizes) {
    for (const char* family : {"dense", "sparse", "skewed"}) {
      const bool dense = std::string(family) == "dense";
      const bool skewed = std::string(family) == "skewed";
      util::Xoshiro256 rng(env.seed + n + (dense ? 1 : 0) + (skewed ? 2 : 0));
      const graph::Graph g =
          dense    ? graph::erdos_renyi_gnm(n, 8ull * n, rng)
          : skewed ? graph::barabasi_albert(n, 8, rng)
                   : graph::random_tree(n, rng);
      DeliveryResult flat;
      DeliveryResult flat_mt;
      best_of_pair(g, rounds, env.seed, threads, flat, flat_mt);
      // Identical counts are part of the contract, not just a report column.
      const bool match = flat.stats.rounds == flat_mt.stats.rounds &&
                         flat.stats.messages == flat_mt.stats.messages &&
                         flat.stats.terminated == flat_mt.stats.terminated &&
                         flat.checksum == flat_mt.checksum;
      all_match = all_match && match;
      table.add(n, family, g.num_edges(), flat.stats.rounds,
                flat.stats.messages, threads,
                util::fixed(flat.msgs_per_sec() / 1e6, 2),
                util::fixed(flat_mt.msgs_per_sec() / 1e6, 2),
                util::fixed(flat.msgs_per_sec() > 0.0
                                ? flat_mt.msgs_per_sec() / flat.msgs_per_sec()
                                : 0.0,
                            3),
                match);
    }
  }
  env.emit(table, "Delivery throughput: flat arena at 1 and " +
                      std::to_string(threads) + " execution lanes");
  return all_match ? 0 : 1;
}

// ------------------------------------------------- CONGEST budget sweep

/// LOCAL vs budgeted rounds for the flood driver: every edge carries
/// `words`-word messages against a `budget`-word budget, so the Defer
/// engine must stretch the schedule by about words/budget while delivering
/// exactly the same messages. This is the model-quantity record for the
/// budget engine (the stretch is deterministic); the wall-clock column
/// meters the admission pass's overhead on top of delivery. A final
/// "sampler" row runs the protocol that actually *uses* event-driven phase
/// barriers, so barrier_rounds_saved (rounds saved against the
/// slack-stretched timetable; 0 for the flood, which has no timetable) is
/// live there.
int run_congest_bench(const bench::Env& env) {
  util::Table table({"n", "family", "edges", "words/msg", "budget",
                     "LOCAL rounds", "budgeted rounds", "stretch",
                     "messages", "deferrals", "carry peak",
                     "barrier_rounds_saved", "congest Mmsg/sec"});
  const auto add = [&table](graph::NodeId n, const char* family,
                            std::uint64_t edges, std::uint32_t words,
                            std::uint64_t budget, const sim::RunStats& local,
                            const sim::RunStats& congest,
                            const sim::Metrics& m, double seconds) {
    table.add(n, family, edges, words, budget, local.rounds, congest.rounds,
              util::fixed(static_cast<double>(congest.rounds) /
                              static_cast<double>(local.rounds),
                          2),
              congest.messages, m.deferrals_total, m.carry_peak,
              m.barrier_rounds_saved,
              util::fixed(seconds > 0.0 ? static_cast<double>(
                                              congest.messages) /
                                              seconds / 1e6
                                        : 0.0,
                          2));
  };

  const unsigned rounds = 2;
  const std::uint32_t words = 8;
  const std::uint64_t budget = 4;
  std::vector<graph::NodeId> sizes{1000, 10000};
  if (env.quick) sizes = {1000};
  int rc = 0;
  for (const graph::NodeId n : sizes) {
    for (const char* family : {"dense", "sparse"}) {
      const bool dense = std::string(family) == "dense";
      util::Xoshiro256 rng(env.seed + n + (dense ? 1 : 0));
      const graph::Graph g = dense
                                 ? graph::erdos_renyi_gnm(n, 8ull * n, rng)
                                 : graph::random_tree(n, rng);
      sim::RunStats local;
      {
        sim::Network net(g, env.seed);
        net.install_all<FloodRounds>(rounds, words);
        local = net.run(static_cast<std::size_t>(rounds) + 4);
      }
      sim::Network net(g, env.seed);
      net.set_congest({budget, sim::CongestPolicy::Defer});
      net.install_all<FloodRounds>(rounds, words);
      util::Timer timer;
      const sim::RunStats congest =
          net.run(64 * (static_cast<std::size_t>(rounds) + 4));
      const double seconds = timer.seconds();
      FL_REQUIRE(local.terminated && congest.terminated,
                 "congest sweep run did not terminate");
      FL_REQUIRE(congest.messages == local.messages,
                 "Defer must deliver every message eventually");
      // A fixed send schedule under a binding budget must stretch.
      if (congest.rounds <= local.rounds) {
        std::fprintf(stderr,
                     "congest sweep: budget failed to stretch rounds at n=%u "
                     "%s (local %zu, budgeted %zu)\n",
                     n, family, local.rounds, congest.rounds);
        rc = 1;
      }
      add(n, family, g.num_edges(), words, budget, local, congest,
          net.metrics(), seconds);
    }
  }
  // The sampler row is exempt from the stretch check: its event-driven
  // barriers can finish in *fewer* rounds than the LOCAL timetable when the
  // phases drain early, so barrier_saved > 0 is its bind check. LOCAL
  // baseline pinned env-immune.
  util::Xoshiro256 rng(env.seed + 7);
  const graph::Graph g = graph::erdos_renyi_gnm(256, 1024, rng);
  auto cfg = core::SamplerConfig::bench_profile(2, 2, env.seed);
  cfg.congest = sim::CongestConfig{};
  const auto local = core::run_distributed_sampler(g, cfg);
  cfg.congest = sim::CongestConfig{8, sim::CongestPolicy::Defer};
  cfg.barriers = core::BarrierMode::EventDriven;
  util::Timer timer;
  const auto adaptive = core::run_distributed_sampler(g, cfg);
  const double seconds = timer.seconds();
  FL_REQUIRE(adaptive.stats.messages == local.stats.messages,
             "budgeted sampler must deliver exactly the LOCAL messages");
  FL_REQUIRE(adaptive.metrics.barrier_rounds_saved > 0,
             "adaptive sampler saved no rounds against its provisioned "
             "timetable — the event-driven barrier is not engaging");
  add(g.num_nodes(), "sampler", g.num_edges(),
      static_cast<std::uint32_t>(local.metrics.max_message_words), 8,
      local.stats, adaptive.stats, adaptive.metrics, seconds);
  env.emit(table, "CONGEST budget: LOCAL vs budgeted rounds (Defer)");
  return rc;
}

// ------------------------------------------------- capacity (n=1M–10M)

/// Peak resident set of this process so far, in MiB. ru_maxrss is
/// process-monotone (a high-water mark), so capacity rows run in
/// ascending-n order and each row's reading is attributed to the largest
/// run so far — which is exactly that row.
double peak_rss_mb() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Physical RAM in MiB (0 when the sysconf probe is unavailable).
double physical_ram_mb() {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page = sysconf(_SC_PAGE_SIZE);
  if (pages <= 0 || page <= 0) return 0.0;
  return static_cast<double>(pages) / 1024.0 *
         (static_cast<double>(page) / 1024.0);
}

/// The scale rows the SoA/streamed engine exists for: a tree flood at
/// n=1M (and, with RAM to spare and no --quick, n=10M), 8 send-rounds
/// each. The peak-RSS ceiling is the frontier-scaling proof: the engine's
/// steady footprint at n=1M sparse is ~440 MiB (graph + per-node state +
/// two arena buffers + outboxes), and the ceiling of 672 MiB per million
/// nodes leaves headroom for allocator slack but NOT for materializing
/// the run — eight rounds of retained deliveries (~700 MiB more) blow it.
int run_capacity_bench(const bench::Env& env, unsigned threads) {
  constexpr double kCeilingMbPerMillionNodes = 672.0;
  const unsigned rounds = 8;
  std::vector<graph::NodeId> sizes{1000000};
  // The n=10M row needs ~4.5 GiB steady; ask for comfortable headroom so
  // the full sweep never swaps a CI box to death.
  if (!env.quick && physical_ram_mb() >= 12288.0) sizes.push_back(10000000);

  util::Table table({"n", "family", "edges", "rounds", "messages", "threads",
                     "Mmsg/sec", "peak RSS MiB", "RSS ceiling MiB",
                     "within ceiling?"});
  int rc = 0;
  for (const graph::NodeId n : sizes) {  // ascending n — see peak_rss_mb()
    util::Xoshiro256 rng(env.seed + n);
    const graph::Graph g = graph::random_tree(n, rng);
    // Best of 3: the first run pays the cold page faults for the whole
    // footprint inside the timed region; the repeats measure the engine.
    // Peak RSS is unaffected (same footprint each run, monotone reading).
    DeliveryResult res = run_delivery(g, rounds, env.seed, threads);
    for (int rep = 1; rep < 3; ++rep) {
      DeliveryResult again = run_delivery(g, rounds, env.seed, threads);
      FL_REQUIRE(again.stats.messages == res.stats.messages &&
                     again.checksum == res.checksum,
                 "capacity repeats must reproduce the run exactly");
      if (again.seconds < res.seconds) res = again;
    }
    const double peak = peak_rss_mb();
    const double ceiling =
        kCeilingMbPerMillionNodes * static_cast<double>(n) / 1e6;
    const bool within = peak <= ceiling;
    if (!within) {
      std::fprintf(stderr,
                   "capacity: peak RSS %.1f MiB exceeds the %.1f MiB "
                   "ceiling at n=%u — the engine materialized more than "
                   "the current+next frontier\n",
                   peak, ceiling, n);
      rc = 1;
    }
    table.add(n, "sparse", g.num_edges(), res.stats.rounds,
              res.stats.messages, threads,
              util::fixed(res.msgs_per_sec() / 1e6, 2), util::fixed(peak, 1),
              util::fixed(ceiling, 1), within);
  }
  env.emit(table, "Capacity: tree flood at n=1M-10M, peak-RSS ceiling");
  return rc;
}

// ------------------------------------------------- round profile (tracing on)

/// Traced flood: run the delivery driver with tracing ON, report one row
/// per engine round from the tracer's RoundProfile timeline, and leave the
/// Chrome-trace artifact (plus its .jsonl profile dump) in the working
/// directory for Perfetto. Model columns (messages, words, deferrals, carry
/// depth, lanes) are bit-identical across thread counts; the *_ns, busy and
/// RSS columns are wall-clock advisory data. Exits nonzero if the artifact
/// is missing/empty or the per-lane data the acceptance contract promises
/// (step:lane spans, busy times) is absent.
int run_profile_bench(const bench::Env& env, unsigned threads) {
  const graph::NodeId n = env.quick ? 10000 : 100000;
  const unsigned rounds = 4;
  const char* trace_path = "TRACE_micro_perf.json";
  util::Xoshiro256 rng(env.seed + n + 1);
  const graph::Graph g = graph::erdos_renyi_gnm(n, 8ull * n, rng);

  util::Table table({"n", "round", "messages", "words", "deferrals",
                     "carry depth", "lanes", "quiesce_ns", "step_ns",
                     "merge_ns", "admit_ns", "lane busy max_ns",
                     "lane busy avg_ns", "busy max_over_avg", "RSS KiB"});
  int rc = 0;
  std::uint64_t step_lane_spans = 0;
  std::uint64_t dropped = 0;
  {
    sim::Network net(g, env.seed);
    net.set_parallelism(threads);
    obs::TraceConfig tcfg;
    tcfg.enabled = true;
    tcfg.path = trace_path;
    tcfg.level = obs::TraceLevel::Spans;
    net.set_trace(std::move(tcfg));
    net.install_all<FloodRounds>(rounds);
    const sim::RunStats stats = net.run(static_cast<std::size_t>(rounds) + 4);
    FL_REQUIRE(stats.terminated, "profile flood did not terminate");
    for (const obs::RoundProfile& p : net.profile()) {
      std::uint64_t busy_max = 0;
      std::uint64_t busy_sum = 0;
      for (const std::uint64_t b : p.lane_busy_ns) {
        if (b > busy_max) busy_max = b;
        busy_sum += b;
      }
      const std::size_t lanes = p.lane_busy_ns.size();
      if (lanes != threads) {
        std::fprintf(stderr,
                     "profile: round %llu reports %zu lane busy slots, "
                     "expected %u\n",
                     static_cast<unsigned long long>(p.round), lanes, threads);
        rc = 1;
      }
      table.add(n, p.round, p.messages, p.words, p.deferrals, p.carry_depth,
                lanes, p.quiesce_ns, p.step_ns, p.merge_ns, p.admit_ns,
                busy_max, lanes == 0 ? 0 : busy_sum / lanes,
                util::fixed(p.max_over_avg_busy, 4), p.rss_kb);
    }
    for (std::size_t t = 0; t < net.tracer()->ring_count(); ++t)
      net.tracer()->ring(t).for_each([&](const obs::SpanEvent& ev) {
        if (ev.kind == obs::SpanKind::StepLane) ++step_lane_spans;
      });
    dropped = net.tracer()->dropped_spans();
  }  // ~Network finalizes trace_path and trace_path.jsonl

  env.emit(table, std::string("Round profile: traced ER flood, per-round "
                              "phases and lane busy times (trace: ") +
                      trace_path + ")");
  if (dropped > 0)
    std::fprintf(stderr, "profile: %llu spans dropped to ring overflow\n",
                 static_cast<unsigned long long>(dropped));

  // Artifact checks: the acceptance contract is a Perfetto-loadable trace
  // with per-lane step spans and per-round phase timings.
  if (table.rows() == 0) {
    std::fprintf(stderr, "profile: tracer produced no round profiles\n");
    return 1;
  }
  if (step_lane_spans < table.rows()) {
    std::fprintf(stderr,
                 "profile: only %llu step:lane spans recorded over %zu "
                 "rounds\n",
                 static_cast<unsigned long long>(step_lane_spans),
                 table.rows());
    return 1;
  }
  std::FILE* f = std::fopen(trace_path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "profile: trace artifact %s was not written\n",
                 trace_path);
    return 1;
  }
  std::fseek(f, 0, SEEK_END);
  const long bytes = std::ftell(f);
  std::fclose(f);
  if (bytes <= 0) {
    std::fprintf(stderr, "profile: trace artifact %s is empty\n", trace_path);
    return 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // --threads N sets the parallel column's lane count (default 8); the
  // sequential flat column always runs single-threaded. --congest adds the
  // CONGEST budget sweep (LOCAL vs budgeted rounds) after the delivery
  // sweep. --capacity runs the n=1M–10M capacity rows *instead* of the
  // delivery sweep (peak RSS is a process-monotone high-water mark, so the
  // capacity rows must be the only large runs in the process); pass
  // --delivery explicitly to get both, capacity first. --profile runs a
  // traced flood instead of the delivery sweep (same instead-of rule: its
  // report includes RSS readings) and drops the Chrome-trace artifact next
  // to the report.
  const auto env = fl::bench::Env::parse(
      argc, argv, {"threads", "delivery", "congest", "capacity", "profile"});
  const fl::util::Options opt(argc, argv);
  const std::int64_t threads = opt.get_int("threads", 8);
  FL_REQUIRE(threads >= 1 && threads <= 1024,
             "--threads must be in [1, 1024]");
  const auto lanes = static_cast<unsigned>(threads);
  const bool capacity = opt.get_bool("capacity", false);
  const bool profile = opt.get_bool("profile", false);
  int rc = 0;
  const auto keep_first_failure = [&rc](int section_rc) {
    if (rc == 0) rc = section_rc;
  };
  if (capacity) keep_first_failure(run_capacity_bench(env, lanes));
  if (profile) keep_first_failure(run_profile_bench(env, lanes));
  if ((!capacity && !profile) || opt.get_bool("delivery", false))
    keep_first_failure(run_delivery_bench(env, lanes));
  if (opt.get_bool("congest", false))
    keep_first_failure(run_congest_bench(env));
  return rc;
}
