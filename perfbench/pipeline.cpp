// Paper-pipeline benchmark harness.
//
// One pass runs the paper's pipeline from outside the library, calling the
// public functions in order and timing each call with steady_clock:
//
//   graph build          graph::complete / graph::erdos_renyi_gnm (set-up)
//   Sampler              core::run_distributed_sampler      (Theorem 11)
//   spanner check        graph::is_valid_edge_subset + check_spanner_sampled
//   transform            localsim::run_over_spanner, LubyMis at t = 3, so
//                        the broadcast radius is alpha * t = 17 * 3 = 51
//
// Every pass is checked (valid edge subset, zero sampled stretch
// violations at alpha = 2*3^k - 1, transform outputs == run_reference,
// and on the CONGEST workload spanner + messages == a LOCAL run of the
// same seed, contract C13); a pass that fails any check counts as failed.
//
// Passes cycle through a workload's coin sets: network seeds for the
// Sampler and the broadcast, derived from --seed. The model counts are
// their mean: on K_384 under CONGEST one draw moves messages and rounds by
// +-10% from seed to seed, which would swamp any gate on them.
//
// The harness prints raw per-pass samples, one "<key> <value>..." line
// each; run.py turns them into the benchmark's metrics. With --trace-dir
// it adds the traced extras: a standalone run_tlocal_broadcast next to
// every pass, then one pass with FL_SIM_TRACE pointed at a separate file
// per Network.
//
//   perfbench_pipeline --workload NAME --seed N --seconds S [--trace-dir D]
//   perfbench_pipeline --self-test
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "graph/generators.hpp"
#include "graph/spanner_check.hpp"
#include "localsim/algorithms.hpp"
#include "localsim/local_algorithm.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "localsim/transformer.hpp"
#include "sim/congest.hpp"
#include "util/rng.hpp"

namespace {

using namespace fl;
using SteadyClock = std::chrono::steady_clock;

constexpr unsigned kK = 2;  // hierarchy depth: alpha = 2 * 3^2 - 1 = 17
constexpr unsigned kH = 3;
constexpr unsigned kT = 3;  // LubyMis rounds
constexpr std::size_t kCheckSamples = 4096;
constexpr std::size_t kMaxCoinSets = 16;

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

struct Workload {
  const char* name;
  unsigned lanes;
  std::uint64_t congest_words;  // 0 = LOCAL
  std::size_t coin_sets;        // network seeds per run, one pass each
  std::function<graph::Graph(std::uint64_t seed)> build;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"sparse_transform", 2, 0, 3,
       [](std::uint64_t seed) {
         util::Xoshiro256 rng(seed);
         return graph::erdos_renyi_gnm(4096, 32768, rng);
       }},
      {"congest_dense", 1, 8, 6,
       [](std::uint64_t) { return graph::complete(384); }},
  };
  return all;
}

// Explicit in every run so an inherited FL_SIM_CONGEST cannot move a
// LOCAL workload.
sim::CongestConfig congest_of(std::uint64_t words) {
  sim::CongestConfig c;
  if (words > 0) c.words_per_edge_per_round = words;
  return c;
}

core::SamplerConfig sampler_config(std::uint64_t coin_seed,
                                   const sim::CongestConfig& congest) {
  auto cfg = core::SamplerConfig::bench_profile(kK, kH, coin_seed);
  cfg.congest = congest;
  return cfg;
}

// Distinct for every (seed, set) pair with set < kMaxCoinSets.
std::uint64_t coin_seed(std::uint64_t seed, std::size_t set) {
  return seed * kMaxCoinSets + set;
}

// FNV-1a over the model fields a perf change must keep bit-identical.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

// What a correct pass must reproduce; fixed once per run and coin set.
struct Expected {
  std::uint64_t coin_seed = 0;
  double alpha = 0.0;
  const std::vector<std::uint64_t>* reference = nullptr;
  // C13: the LOCAL run a budgeted Sampler must match (CONGEST only).
  const core::DistributedSpannerRun* local = nullptr;
};

struct SpannerVerdict {
  bool ok = false;
  std::size_t edges_checked = 0;
};

SpannerVerdict check_spanner(const graph::Graph& g,
                             const std::vector<graph::EdgeId>& spanner,
                             const Expected& want) {
  if (!graph::is_valid_edge_subset(g, spanner)) return {};
  util::Xoshiro256 rng(want.coin_seed);
  const auto rep = graph::check_spanner_sampled(
      g, spanner, kCheckSamples, static_cast<std::uint32_t>(want.alpha), rng,
      want.alpha);
  return {rep.violations == 0 && rep.edges_checked > 0, rep.edges_checked};
}

bool matches_local(const core::DistributedSpannerRun& run,
                   const Expected& want) {
  return want.local == nullptr ||
         (run.edges == want.local->edges &&
          run.stats.messages == want.local->stats.messages);
}

struct Pass {
  double sampler_s = 0, check_s = 0, transform_s = 0, wall_s = 0;
  bool ok = false;
  std::uint64_t messages = 0, rounds = 0, spanner_edges = 0;
  std::uint64_t fingerprint = 0;
  std::size_t edges_checked = 0;
  core::MessageBreakdown breakdown;
  std::uint64_t sampler_messages = 0, sampler_rounds = 0, sampler_words = 0;
  std::uint64_t max_message_words = 0;
  std::vector<graph::EdgeId> spanner;
};

Pass run_pass(const graph::Graph& g, const Workload& w,
              const localsim::LocalAlgorithm& alg, const Expected& want) {
  const auto congest = congest_of(w.congest_words);
  Pass p;
  const auto t0 = SteadyClock::now();
  auto run =
      core::run_distributed_sampler(g, sampler_config(want.coin_seed, congest));
  p.sampler_s = seconds_since(t0);

  const auto t1 = SteadyClock::now();
  const SpannerVerdict verdict = check_spanner(g, run.edges, want);
  p.check_s = seconds_since(t1);

  const auto t2 = SteadyClock::now();
  const auto rep = localsim::run_over_spanner(
      g, alg, run.edges, run.stretch_bound, want.coin_seed, congest);
  p.transform_s = seconds_since(t2);
  p.wall_s = seconds_since(t0);

  p.ok = verdict.ok && run.stretch_bound == want.alpha &&
         rep.outputs == *want.reference && matches_local(run, want);
  p.edges_checked = verdict.edges_checked;
  p.messages = run.stats.messages + rep.broadcast_messages;
  p.rounds = run.stats.rounds + rep.broadcast_rounds;
  p.spanner_edges = run.edges.size();
  p.breakdown = run.breakdown;
  p.sampler_messages = run.stats.messages;
  p.sampler_rounds = run.stats.rounds;
  p.sampler_words = run.metrics.words_total;
  p.max_message_words = run.metrics.max_message_words;

  Fnv f;
  for (const auto e : run.edges) f.add(e);
  f.add(run.breakdown.queries);
  f.add(run.breakdown.tree_sessions);
  f.add(run.breakdown.center);
  f.add(run.breakdown.control);
  f.add(run.stats.rounds);
  f.add(run.metrics.words_total);
  f.add(rep.broadcast_messages);
  f.add(rep.broadcast_rounds);
  p.fingerprint = f.h;
  p.spanner = std::move(run.edges);
  return p;
}

struct BroadcastSample {
  double seconds = 0;
  std::uint64_t messages = 0, rounds = 0, words = 0, ball_entries = 0;
};

// run_tlocal_broadcast alone, with the radius run_over_spanner uses.
BroadcastSample run_broadcast(const graph::Graph& g, const Workload& w,
                              const Expected& want,
                              const std::vector<graph::EdgeId>& spanner) {
  const auto radius = static_cast<unsigned>(std::ceil(want.alpha * kT));
  const auto t0 = SteadyClock::now();
  const auto b = localsim::run_tlocal_broadcast(
      g, spanner, radius, want.coin_seed, congest_of(w.congest_words));
  BroadcastSample s;
  s.seconds = seconds_since(t0);
  s.messages = b.stats.messages;
  s.rounds = b.stats.rounds;
  s.words = b.metrics.words_total;
  for (const auto& r : b.reached) s.ball_entries += r.size();
  return s;
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void set_trace(const std::string& path) {
  if (path.empty()) {
    unsetenv("FL_SIM_TRACE");
  } else {
    setenv("FL_SIM_TRACE", (path + ":profile").c_str(), 1);
  }
}

// One "<key> <value>..." line; run.py parses these.
void emit(const char* key, const std::vector<double>& values) {
  std::printf("%s", key);
  for (const double v : values) std::printf(" %.17g", v);
  std::printf("\n");
}

// `field` of every sample.
template <class T, class F>
std::vector<double> each(const std::vector<T>& xs, F field) {
  std::vector<double> out;
  for (const auto& x : xs) out.push_back(static_cast<double>(field(x)));
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Feeds broken spanners and outputs through the same checks every pass
// uses and expects each one to be caught. Returns true iff the checker
// accepts the genuine pass and rejects every broken input.
bool self_test() {
  const Workload w{"self_test", 1, 0, 1,
                   [](std::uint64_t) { return graph::complete(64); }};
  const std::uint64_t seed = 5;
  const auto g = w.build(seed);
  const localsim::LubyMis alg(seed + 1, kT);
  const auto reference = localsim::run_reference(g, alg);
  Expected want;
  want.coin_seed = coin_seed(seed, 0);
  want.alpha = sampler_config(want.coin_seed, {}).stretch_bound();
  want.reference = &reference;

  const Pass good = run_pass(g, w, alg, want);
  int caught = 0;
  auto out_of_range = good.spanner;
  out_of_range.push_back(g.num_edges());
  caught += !check_spanner(g, out_of_range, want).ok;
  caught += !check_spanner(g, {}, want).ok;
  auto wrong = reference;
  wrong[0] ^= 1;
  Expected wrong_want = want;
  wrong_want.reference = &wrong;
  caught += !run_pass(g, w, alg, wrong_want).ok;
  auto local =
      core::run_distributed_sampler(g, sampler_config(want.coin_seed, {}));
  local.edges.pop_back();
  Expected c13_want = want;
  c13_want.local = &local;
  caught += !run_pass(g, w, alg, c13_want).ok;
  return good.ok && caught == 4;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_dir;
  bool self_test_only = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace-dir") {
      a.trace_dir = value();
    } else if (flag == "--self-test") {
      a.self_test_only = true;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  return a;
}

int run(const Args& args) {
  // Every engine knob comes from this harness, never the caller's shell.
  for (const char* knob : {"FL_SIM_THREADS", "FL_SIM_CONGEST", "FL_SIM_TRACE",
                           "FL_SIM_BACKEND", "FL_SIM_CHECK", "FL_SIM_BALANCE"})
    unsetenv(knob);

  const bool checker_ok = self_test();
  if (args.self_test_only) {
    emit("self_test", {checker_ok ? 1.0 : 0.0});
    return checker_ok ? 0 : 1;
  }

  const Workload* w = nullptr;
  for (const auto& cand : workloads())
    if (args.workload == cand.name) w = &cand;
  if (w == nullptr)
    throw std::runtime_error("unknown workload " + args.workload);
  setenv("FL_SIM_THREADS", std::to_string(w->lanes).c_str(), 1);

  // The graph is built again before every pass and the copy dropped, so
  // the set-up samples span the run like the passes do: a single build
  // lasts milliseconds and swings with the host by +-25%.
  std::vector<double> setup;
  auto timed_build = [&] {
    const auto t0 = SteadyClock::now();
    graph::Graph built = w->build(args.seed);
    setup.push_back(seconds_since(t0));
    return built;
  };
  const graph::Graph g = timed_build();

  const localsim::LubyMis alg(args.seed + 1, kT);
  const auto t_ref = SteadyClock::now();
  const auto reference = localsim::run_reference(g, alg);
  const double reference_s = seconds_since(t_ref);

  const std::size_t sets = w->coin_sets;
  std::vector<Expected> want(sets);
  std::vector<core::DistributedSpannerRun> locals;
  locals.reserve(sets);
  for (std::size_t set = 0; set < sets; ++set) {
    Expected& e = want[set];
    e.coin_seed = coin_seed(args.seed, set);
    e.alpha = sampler_config(e.coin_seed, {}).stretch_bound();
    e.reference = &reference;
    if (w->congest_words > 0) {
      locals.push_back(
          core::run_distributed_sampler(g, sampler_config(e.coin_seed, {})));
      e.local = &locals.back();
    }
  }

  // Passes until the next one would overrun --seconds, and at least one
  // per coin set.
  const bool traced = !args.trace_dir.empty();
  std::vector<Pass> passes;
  std::vector<BroadcastSample> broadcasts;
  std::uint64_t failed = 0;
  const auto start = SteadyClock::now();
  for (;;) {
    timed_build();
    const std::size_t i = passes.size();
    const Expected& e = want[i % sets];
    Pass p = run_pass(g, *w, alg, e);
    // Same coins, same counts: drift between passes is a determinism bug.
    if (i >= sets && p.fingerprint != passes[i - sets].fingerprint)
      p.ok = false;
    failed += !p.ok;
    if (traced)
      broadcasts.push_back(run_broadcast(g, *w, e, p.spanner));
    passes.push_back(std::move(p));
    const double elapsed = seconds_since(start);
    if (passes.size() >= sets &&
        elapsed + elapsed / passes.size() > args.seconds)
      break;
  }
  const double rss = peak_rss_mib();

  Fnv model;
  for (std::size_t set = 0; set < sets; ++set)
    model.add(passes[set].fingerprint);
  std::printf("fingerprint %s seed=%llu %s\n", w->name,
              static_cast<unsigned long long>(args.seed),
              hex(model.h).c_str());

  // The mean of `field` over the first pass of each coin set.
  auto mean = [sets](const auto& xs, auto field) {
    double sum = 0;
    for (std::size_t i = 0; i < sets; ++i)
      sum += static_cast<double>(field(xs[i]));
    return std::vector<double>{sum / static_cast<double>(sets)};
  };
  using P = const Pass&;
  emit("self_test", {checker_ok ? 1.0 : 0.0});
  emit("attempted", {static_cast<double>(passes.size())});
  emit("failed", {static_cast<double>(failed)});
  emit("setup_s", setup);
  emit("reference_s", {reference_s});
  emit("peak_rss_mib", {rss});
  emit("wall_s", each(passes, [](P p) { return p.wall_s; }));
  emit("sampler_s", each(passes, [](P p) { return p.sampler_s; }));
  emit("check_s", each(passes, [](P p) { return p.check_s; }));
  emit("transform_s", each(passes, [](P p) { return p.transform_s; }));
  emit("messages", mean(passes, [](P p) { return p.messages; }));
  emit("rounds", mean(passes, [](P p) { return p.rounds; }));
  emit("spanner_edges", mean(passes, [](P p) { return p.spanner_edges; }));
  emit("edges_checked", mean(passes, [](P p) { return p.edges_checked; }));
  emit("sampler_messages",
       mean(passes, [](P p) { return p.sampler_messages; }));
  emit("query_msgs", mean(passes, [](P p) { return p.breakdown.queries; }));
  emit("tree_msgs",
       mean(passes, [](P p) { return p.breakdown.tree_sessions; }));
  emit("sampler_rounds", mean(passes, [](P p) { return p.sampler_rounds; }));
  emit("sampler_words", mean(passes, [](P p) { return p.sampler_words; }));
  emit("max_message_words",
       mean(passes, [](P p) { return p.max_message_words; }));
  if (!traced) return 0;

  using B = const BroadcastSample&;
  emit("broadcast_s", each(broadcasts, [](B b) { return b.seconds; }));
  emit("broadcast_messages", mean(broadcasts, [](B b) { return b.messages; }));
  emit("broadcast_rounds", mean(broadcasts, [](B b) { return b.rounds; }));
  emit("broadcast_words", mean(broadcasts, [](B b) { return b.words; }));
  emit("ball_entries", mean(broadcasts, [](B b) { return b.ball_entries; }));

  // One traced pass on coin set 0: each Network writes its own profile.
  const std::string dir = args.trace_dir + "/";
  const auto congest = congest_of(w->congest_words);
  const Expected& e = want[0];
  set_trace(dir + "sampler.json");
  const auto t0 = SteadyClock::now();
  const auto run =
      core::run_distributed_sampler(g, sampler_config(e.coin_seed, congest));
  const double sampler_s = seconds_since(t0);
  set_trace("");
  const bool check_ok = check_spanner(g, run.edges, e).ok;
  set_trace(dir + "transform.json");
  const auto rep = localsim::run_over_spanner(
      g, alg, run.edges, run.stretch_bound, e.coin_seed, congest);
  const double wall_s = seconds_since(t0);
  set_trace(dir + "broadcast.json");
  const double broadcast_s = run_broadcast(g, *w, e, run.edges).seconds;
  set_trace("");
  // Tracing is observational (C12): the traced pass must match pass 0.
  const bool traced_ok =
      check_ok && rep.outputs == reference &&
      run.edges == passes[0].spanner &&
      run.stats.messages + rep.broadcast_messages == passes[0].messages;
  emit("traced.ok", {traced_ok ? 1.0 : 0.0});
  emit("traced.sampler_s", {sampler_s});
  emit("traced.wall_s", {wall_s});
  emit("traced.broadcast_s", {broadcast_s});
  emit("traced.deferrals",
       {static_cast<double>(run.metrics.deferrals_total + rep.deferrals)});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_pipeline: %s\n", e.what());
    return 2;
  }
}
