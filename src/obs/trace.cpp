#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <ostream>

#include "util/assert.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace fl::obs {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Quiesce: return "quiesce";
    case SpanKind::StepPhase: return "step";
    case SpanKind::MergePhase: return "merge";
    case SpanKind::AdmitPhase: return "admit";
    case SpanKind::StepLane: return "step:lane";
    case SpanKind::MergeLane: return "merge:lane";
    case SpanKind::AdmitLane: return "admit:lane";
    case SpanKind::Protocol: return "protocol";
  }
  return "?";
}

TraceConfig default_trace_config() {
  TraceConfig cfg;
  const char* env = std::getenv("FL_SIM_TRACE");
  if (env == nullptr || *env == '\0') return cfg;
  std::string spec(env);
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    const std::string level = spec.substr(colon + 1);
    if (level == "spans") {
      cfg.level = TraceLevel::Spans;
    } else {
      FL_REQUIRE(level == "profile",
                 "FL_SIM_TRACE must be '<path>' or '<path>:<level>' with "
                 "level 'spans' or 'profile' (colons in the path itself are "
                 "not supported)");
      cfg.level = TraceLevel::Profile;
    }
    spec.resize(colon);
  }
  FL_REQUIRE(!spec.empty(), "FL_SIM_TRACE needs an output path");
  cfg.path = std::move(spec);
  cfg.enabled = true;
  return cfg;
}

namespace {

std::uint64_t sample_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // ru_maxrss is KiB on Linux, bytes on macOS; normalize to KiB.
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss);
#endif
#else
  return 0;
#endif
}

// Span events retained per track (engine + one per lane). Overflow drops
// the oldest events and counts them (SpanRing::dropped) — a bounded trace
// of an unbounded run, never an unbounded allocation.
constexpr std::size_t kRingCapacity = std::size_t{1} << 14;

// Microseconds with nanosecond precision — the trace-event format's `ts`
// unit. snprintf rather than ostream so locale can never reshape the
// artifact.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  out += buf;
}

}  // namespace

Tracer::Tracer(TraceConfig cfg) : cfg_(std::move(cfg)) {
  // The engine track exists from construction so protocol scopes opened
  // before the execution plan is finalized still have somewhere to land.
  rings_.emplace_back(kRingCapacity);
}

void Tracer::bind_lanes(std::size_t lanes) {
  while (rings_.size() < 1 + lanes) rings_.emplace_back(kRingCapacity);
  if (lane_busy_scratch_.size() < lanes) lane_busy_scratch_.resize(lanes, 0);
}

void Tracer::record(SpanKind kind, unsigned lane, std::size_t round,
                    std::uint64_t begin_ns, std::uint64_t end_ns) {
  const std::uint64_t dur = end_ns - begin_ns;
  std::size_t track = 0;
  switch (kind) {
    case SpanKind::StepLane:
      lane_busy_scratch_[lane] += dur;
      track = 1 + lane;
      break;
    case SpanKind::MergeLane:
    case SpanKind::AdmitLane:
      track = 1 + lane;
      break;
    case SpanKind::Quiesce: scratch_.quiesce_ns += dur; break;
    case SpanKind::StepPhase: scratch_.step_ns += dur; break;
    case SpanKind::MergePhase: scratch_.merge_ns += dur; break;
    case SpanKind::AdmitPhase: scratch_.admit_ns += dur; break;
    case SpanKind::Protocol: break;
  }
  if (cfg_.level != TraceLevel::Spans) return;
  SpanEvent e;
  e.begin_ns = begin_ns;
  e.end_ns = end_ns;
  e.round = round;
  e.kind = kind;
  e.lane = static_cast<std::uint16_t>(lane);
  rings_[track].push(e);
}

void Tracer::record_named(const char* name, std::size_t round,
                          std::uint64_t begin_ns, std::uint64_t end_ns) {
  if (cfg_.level != TraceLevel::Spans) return;
  SpanEvent e;
  e.begin_ns = begin_ns;
  e.end_ns = end_ns;
  e.round = round;
  e.kind = SpanKind::Protocol;
  e.name = name;
  rings_[0].push(e);
}

void Tracer::end_round(std::size_t round, std::uint64_t delivered,
                       std::uint64_t words_cum, std::uint64_t deferrals_cum,
                       std::uint64_t carry_depth, std::uint64_t stepped,
                       std::uint64_t allocations) {
  RoundProfile p;
  p.round = round;
  p.messages = delivered;
  p.words = words_cum - prev_words_cum_;
  p.deferrals = deferrals_cum - prev_deferrals_cum_;
  p.carry_depth = carry_depth;
  p.stepped = stepped;
  p.allocations = allocations;
  prev_words_cum_ = words_cum;
  prev_deferrals_cum_ = deferrals_cum;
  p.quiesce_ns = scratch_.quiesce_ns;
  p.step_ns = scratch_.step_ns;
  p.merge_ns = scratch_.merge_ns;
  p.admit_ns = scratch_.admit_ns;
  scratch_ = PhaseScratch{};
  p.end_ns = Clock::now_ns();
  p.rss_kb = sample_rss_kb();
  p.lane_busy_ns = lane_busy_scratch_;
  std::uint64_t busy_max = 0;
  std::uint64_t busy_sum = 0;
  for (auto& b : lane_busy_scratch_) {
    if (b > busy_max) busy_max = b;
    busy_sum += b;
    b = 0;
  }
  if (busy_sum > 0 && !p.lane_busy_ns.empty()) {
    const double avg = static_cast<double>(busy_sum) /
                       static_cast<double>(p.lane_busy_ns.size());
    p.max_over_avg_busy = static_cast<double>(busy_max) / avg;
  }
  profiles_.push_back(std::move(p));
}

std::uint64_t Tracer::dropped_spans() const {
  std::uint64_t dropped = 0;
  for (const auto& ring : rings_) dropped += ring.dropped();
  return dropped;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  // One flat, globally ts-sorted stream of trace events: Perfetto does
  // not require the sort, but it makes downstream validation (a trace is
  // chronologically well-formed iff `ts` is non-decreasing in file order)
  // a single pass — scripts/trace_lint.py leans on it.
  struct Flat {
    SpanEvent e;
    std::size_t tid;
  };
  std::vector<Flat> flat;
  for (std::size_t t = 0; t < rings_.size(); ++t)
    rings_[t].for_each([&](const SpanEvent& e) { flat.push_back({e, t}); });
  std::sort(flat.begin(), flat.end(), [](const Flat& a, const Flat& b) {
    if (a.e.begin_ns != b.e.begin_ns) return a.e.begin_ns < b.e.begin_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.e.end_ns < b.e.end_ns;
  });
  // Rebase to the earliest stamp so `ts` starts near 0 regardless of the
  // process's steady_clock epoch (and stays exact in a double).
  std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
  for (const auto& f : flat) t0 = std::min(t0, f.e.begin_ns);
  for (const auto& p : profiles_) t0 = std::min(t0, p.end_ns);
  if (t0 == std::numeric_limits<std::uint64_t>::max()) t0 = 0;

  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"fl-sim\"}}";
  for (std::size_t t = 0; t < rings_.size(); ++t) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    append_u64(out, t);
    out += ",\"args\":{\"name\":\"";
    if (t == 0) {
      out += "engine";
    } else {
      out += "lane ";
      append_u64(out, t - 1);
    }
    out += "\"}}";
  }
  if (dropped_spans() > 0) {
    out += ",\n{\"name\":\"dropped_spans\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
           "\"args\":{\"count\":";
    append_u64(out, dropped_spans());
    out += "}}";
  }
  for (const auto& f : flat) {
    out += ",\n{\"name\":\"";
    out += (f.e.kind == SpanKind::Protocol && f.e.name != nullptr)
               ? f.e.name
               : span_name(f.e.kind);
    out += "\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    append_u64(out, f.tid);
    out += ",\"ts\":";
    append_us(out, f.e.begin_ns - t0);
    out += ",\"dur\":";
    append_us(out, f.e.end_ns - f.e.begin_ns);
    out += ",\"args\":{\"round\":";
    append_u64(out, f.e.round);
    if (f.tid > 0) {
      out += ",\"lane\":";
      append_u64(out, f.e.lane);
    }
    out += "}}";
  }
  // Per-round counter tracks: delivered messages, carried backlog,
  // deferral events — the round timeline as Perfetto counter lanes.
  for (const auto& p : profiles_) {
    const std::uint64_t ts = p.end_ns >= t0 ? p.end_ns - t0 : 0;
    out += ",\n{\"name\":\"delivered\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":";
    append_us(out, ts);
    out += ",\"args\":{\"messages\":";
    append_u64(out, p.messages);
    out += "}}";
    out += ",\n{\"name\":\"carry\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":";
    append_us(out, ts);
    out += ",\"args\":{\"carried\":";
    append_u64(out, p.carry_depth);
    out += ",\"deferrals\":";
    append_u64(out, p.deferrals);
    out += "}}";
  }
  out += "\n]}\n";
  os << out;
}

namespace {

void append_histogram_line(std::string& out, const char* name,
                           const util::LogHistogram& h) {
  out += "{\"histogram\":\"";
  out += name;
  out += "\",\"count\":";
  append_u64(out, h.count());
  out += ",\"sum\":";
  append_u64(out, h.sum());
  out += ",\"min\":";
  append_u64(out, h.min());
  out += ",\"max\":";
  append_u64(out, h.max());
  out += ",\"buckets\":[";
  bool first = true;
  for (std::size_t b = 0; b < h.used_buckets(); ++b) {
    if (h.bucket_count(b) == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"lo\":";
    append_u64(out, util::LogHistogram::bucket_lo(b));
    out += ",\"hi\":";
    append_u64(out, util::LogHistogram::bucket_hi(b));
    out += ",\"n\":";
    append_u64(out, h.bucket_count(b));
    out += "}";
  }
  out += "]}\n";
}

}  // namespace

void Tracer::write_profile_jsonl(std::ostream& os) const {
  std::string out;
  for (const auto& p : profiles_) {
    out += "{\"round\":";
    append_u64(out, p.round);
    out += ",\"messages\":";
    append_u64(out, p.messages);
    out += ",\"words\":";
    append_u64(out, p.words);
    out += ",\"deferrals\":";
    append_u64(out, p.deferrals);
    out += ",\"carry_depth\":";
    append_u64(out, p.carry_depth);
    out += ",\"stepped\":";
    append_u64(out, p.stepped);
    out += ",\"allocations\":";
    append_u64(out, p.allocations);
    out += ",\"lanes\":";
    append_u64(out, p.lane_busy_ns.size());
    out += ",\"quiesce_ns\":";
    append_u64(out, p.quiesce_ns);
    out += ",\"step_ns\":";
    append_u64(out, p.step_ns);
    out += ",\"merge_ns\":";
    append_u64(out, p.merge_ns);
    out += ",\"admit_ns\":";
    append_u64(out, p.admit_ns);
    out += ",\"end_ns\":";
    append_u64(out, p.end_ns);
    out += ",\"rss_kb\":";
    append_u64(out, p.rss_kb);
    out += ",\"busy_ns\":[";
    for (std::size_t s = 0; s < p.lane_busy_ns.size(); ++s) {
      if (s > 0) out += ",";
      append_u64(out, p.lane_busy_ns[s]);
    }
    out += "],\"max_over_avg_busy\":";
    append_double(out, p.max_over_avg_busy);
    out += "}\n";
  }
  append_histogram_line(out, "message_words", words_hist_);
  append_histogram_line(out, "edge_carry", carry_hist_);
  append_histogram_line(out, "node_sends", sends_hist_);
  os << out;
}

void Tracer::finalize() {
  if (finalized_ || cfg_.path.empty()) {
    finalized_ = true;
    return;
  }
  finalized_ = true;
  // Truncate-and-overwrite on purpose: under a suite-wide FL_SIM_TRACE
  // every Network writes the same path and the last run wins — a bounded
  // artifact, not one file per test. Failures are reported, never thrown:
  // tracing must not take down the run it observes (this is called from
  // Network's destructor).
  try {
    std::ofstream trace(cfg_.path, std::ios::trunc);
    if (!trace) {
      std::cerr << "fl::obs: cannot write trace to '" << cfg_.path << "'\n";
      return;
    }
    write_chrome_trace(trace);
    const std::string jsonl_path = cfg_.path + ".jsonl";
    std::ofstream jsonl(jsonl_path, std::ios::trunc);
    if (!jsonl) {
      std::cerr << "fl::obs: cannot write profile to '" << jsonl_path << "'\n";
      return;
    }
    write_profile_jsonl(jsonl);
  } catch (const std::exception& e) {
    std::cerr << "fl::obs: trace export failed: " << e.what() << "\n";
  }
}

}  // namespace fl::obs
