#include "sim/network.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace fl::sim {

using graph::EdgeId;
using graph::NodeId;

// ---------------------------------------------------------------- Context

std::span<const EdgeId> Context::incident_edges() const {
  return net_->incident_edges_[self_];
}

void Context::send(EdgeId edge, Payload payload,
                   std::uint32_t size_hint_words) {
  net_->enqueue(*lane_, self_, edge, std::move(payload), size_hint_words);
}

std::size_t Context::round() const { return net_->round(); }

bool Context::network_silent() const { return net_->round_silent(); }

bool Context::all_delivered() const {
  return net_->carried_messages() == 0;
}

util::Xoshiro256& Context::rng() {
  // The per-node RNG stream is mutable node state: drawing from another
  // shard's stream would silently change that node's randomness (and the
  // run's determinism across thread counts).
  if (net_->check_) net_->check_->touch_node(self_, "rng stream");
  return net_->node_rngs_[self_];
}

// ---------------------------------------------------------------- Network

Network::Network(const graph::Graph& graph, std::uint64_t seed)
    : graph_(&graph), streams_(seed),
      threads_(default_parallel_config()) {
  if (default_check_enabled()) check_ = std::make_unique<OwnershipChecker>();
  {
    obs::TraceConfig tcfg = obs::default_trace_config();
    if (tcfg.enabled) trace_ = std::make_unique<obs::Tracer>(std::move(tcfg));
  }
  const NodeId n = graph.num_nodes();
  FL_REQUIRE(n >= 1, "network needs at least one node");
  arena_offsets_.assign(n + 1, 0);

  incident_edges_.resize(n);
  send_cursor_.assign(n, 0);
  done_state_.assign(n, 0);
  node_rngs_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto inc = graph.incident(v);
    incident_edges_[v].reserve(inc.size());
    for (const auto& i : inc) incident_edges_[v].push_back(i.edge);
    node_rngs_.push_back(streams_.node_stream(v));
  }
  metrics_.messages_per_node.assign(n, 0);
}

Network::~Network() {
  if (trace_ == nullptr) return;
  // The per-node send totals only stop moving when the runs do; fold them
  // into the sends histogram at teardown, then write the artifacts.
  // finalize() never throws (a destructor must not), and with an empty
  // path it only marks the tracer closed.
  if (started_) {
    for (const auto sends : metrics_.messages_per_node)
      trace_->node_sends_hist().add(sends);
  }
  trace_->finalize();
}

void Network::set_trace(obs::TraceConfig cfg) {
  FL_REQUIRE(!started_, "cannot change tracing after the run started");
  if (cfg.enabled) {
    trace_ = std::make_unique<obs::Tracer>(std::move(cfg));
  } else {
    trace_.reset();
  }
}

void Network::set_parallelism(unsigned threads) {
  FL_REQUIRE(!started_, "cannot change parallelism after the run started");
  FL_REQUIRE(threads >= 1, "parallelism needs at least one thread");
  // Every lane is a real OS thread; cap well above any sane machine so a
  // wrapped or garbage thread count fails loudly instead of fork-bombing.
  FL_REQUIRE(threads <= 1024, "parallelism capped at 1024 threads");
  threads_ = threads;
}

void Network::set_check(bool enabled) {
  FL_REQUIRE(!started_, "cannot change checking after the run started");
  if (enabled && check_ == nullptr) {
    check_ = std::make_unique<OwnershipChecker>();
  } else if (!enabled) {
    check_.reset();
  }
}

void Network::set_check_probe(std::function<void(Network&, unsigned)> probe) {
  check_probe_ = std::move(probe);
}

void Network::debug_touch_node(graph::NodeId v, unsigned as_lane) {
  FL_REQUIRE(check_ != nullptr, "debug_touch_node needs checking enabled");
  FL_REQUIRE(started_, "debug_touch_node needs a started run (no ownership "
                       "map exists before the execution plan is finalized)");
  FL_REQUIRE(v < graph_->num_nodes(), "node id out of range");
  LaneScope scope(check_.get(), as_lane, EnginePhase::Step);
  check_->touch_node(v, "debug-probe state");
}

void Network::set_congest(CongestConfig congest) {
  FL_REQUIRE(!started_, "cannot change the congest budget after the run started");
  // A 0-word budget could never admit anything: parked messages would
  // never drain. kUnlimited means LOCAL.
  FL_REQUIRE(congest.words_per_edge_per_round >= 1,
             "congest budget must be at least 1 word per edge per round");
  congest_ = congest;
}

void Network::install(
    const std::function<std::unique_ptr<NodeProgram>(NodeId)>& factory) {
  FL_REQUIRE(!started_, "cannot install programs after the run started");
  const NodeId n = graph_->num_nodes();
  programs_.clear();
  programs_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    auto p = factory(v);
    FL_REQUIRE(p != nullptr, "program factory returned null");
    programs_.push_back(std::move(p));
  }
}

void Network::enqueue(SendLane& lane, NodeId from, EdgeId edge,
                      Payload payload, std::uint32_t size_hint_words) {
  if (check_) {
    // The send path mutates sender-owned state (send cursor,
    // messages_per_node) and the lane's private outbox/counts: both must
    // belong to the stepping lane.
    check_->touch_node(from, "send-path state");
    check_->touch_lane(static_cast<unsigned>(&lane - lanes_.data()),
                       EnginePhase::Step, "send outbox");
  }
  // Resolve `to` and prove incidence. Fast path: the sender's incidence
  // cursor — flood-style protocols send over their incident edges in
  // incidence order, so the expected entry (or the next one, after a
  // skipped edge such as a tree parent) matches with a sequential read of
  // the sender's own incidence list. Anything else (reply over the inbound
  // edge, protocol-sorted edge order, ...) reads the edge's endpoints,
  // which is also the incidence check.
  const std::span<const graph::Incidence> inc = graph_->incident(from);
  std::uint32_t& cur = send_cursor_[from];
  NodeId to;
  if (cur < inc.size() && inc[cur].edge == edge) {
    to = inc[cur].to;
    cur = (cur + 1 == inc.size()) ? 0 : cur + 1;
  } else if (cur + 1 < inc.size() && inc[cur + 1].edge == edge) {
    to = inc[cur + 1].to;
    cur = (cur + 2 == inc.size()) ? 0 : cur + 2;
  } else {
    FL_REQUIRE(edge < graph_->num_edges(), "send over unknown edge");
    const auto ep = graph_->endpoints(edge);
    FL_REQUIRE(ep.u == from || ep.v == from,
               "a node may only send over its incident edges");
    to = (ep.u == from) ? ep.v : ep.u;
  }
  MessageHeader h;
  h.edge = edge;
  h.from = from;
  h.to = to;
  // A message costs at least one word no matter what the sender reports:
  // a computed-zero hint would free-ride on words_total (and, in congest
  // mode, on the per-edge budget), making an O(n)-message protocol look
  // word-free. Clamp at the single choke point every send goes through.
  h.size_hint_words = size_hint_words == 0 ? 1 : size_hint_words;
  // Per-message accounting happens here rather than at delivery — every
  // enqueued message is delivered exactly once next round, so the totals
  // are identical and the merge stays a pure data-movement pass. All of it
  // is lane- or sender-local (the sender belongs to the stepping shard),
  // so parallel stepping never contends: words go to the lane, counts to
  // the lane's per-destination array, and messages_per_node is indexed by
  // the sender.
  lane.words += h.size_hint_words;
  if (h.size_hint_words > lane.max_words) lane.max_words = h.size_hint_words;
  ++metrics_.messages_per_node[h.from];
  ++lane.dest_counts[h.to];
  lane.outbox.push_back(h, std::move(payload));
}

void Network::begin_if_needed() {
  // Shared run()/step() preamble: finalize the execution plan from
  // threads_, run every node's on_start, deliver round 0's sends.
  if (started_) return;
  started_ = true;
  const NodeId n = graph_->num_nodes();
  // Degree-weighted cuts: a node's per-round cost is dominated by its
  // sends and inbox, both proportional to its degree; + 1 so isolated
  // nodes still count as one program step.
  std::vector<std::uint64_t> weights(n);
  for (NodeId v = 0; v < n; ++v) weights[v] = graph_->degree(v) + 1;
  shards_ = partition_nodes(n, threads_, weights);
  lanes_.resize(shards_.size());
  // One flood over every edge (in both directions) is the canonical LOCAL
  // round; reserving that footprint up front spares the first big round
  // ~20 doubling reallocations, each of which re-moves the whole outbox.
  // Reserve commits address space only — pages a lighter protocol never
  // touches cost nothing.
  const std::size_t flood = 2 * static_cast<std::size_t>(graph_->num_edges());
  for (auto& lane : lanes_) {
    lane.outbox.reserve(flood / lanes_.size() + 16);
    lane.dest_counts.assign(n, 0);
    lane.cursors.assign(n, 0);
  }
  plan_delivery();
  pool_ = std::make_unique<ExecPool>(static_cast<unsigned>(lanes_.size()));
  if (check_) check_->bind_shards(shards_, n);
  if (trace_) trace_->bind_lanes(lanes_.size());
  phase_step(/*starting=*/true);
  phase_merge();
}

void Network::phase_step(bool starting) {
  // Phase 1 — step shards. Each lane steps its shard's nodes in ascending
  // id order against its private SendLane. Everything a step touches is
  // either shard-owned (program, RNG stream, send cursor,
  // messages_per_node[self], done_state_[self]) or read-only this
  // phase (graph, arena + offsets), so lanes run concurrently without
  // locks. The done() re-read happens here, immediately after the step —
  // the only place done-state can change — keeping the quiesce phase free
  // of any per-node work.
  //
  // The start round and every silent round step every node. Any other
  // round steps the nodes with mail plus the non-reactive ones: a
  // reactive program's on_round is a no-op on an empty inbox outside
  // silence (node.hpp), so skipping it leaves that node untouched and
  // every send, arena slot and done-counter exactly as stepping it would.
  // The shard's recipients come off its CSR arena slice in ascending
  // order, so the phase costs O(recipients + non-reactive nodes).
  if (check_) check_->set_round(round_);
  const bool everyone = starting || round_silent();
  // Phase span on the engine track; per-lane busy spans on the lane
  // tracks. Both are one null-check when tracing is off, and the lane
  // span's duration is what RoundProfile::lane_busy_ns accumulates — the
  // imbalance signal the adaptive-sharding ROADMAP item wants.
  const obs::SpanScope phase_span(trace_.get(), obs::SpanKind::StepPhase, 0,
                                  round_);
  auto step_shard = [&](unsigned s) {
    // With checking on, this scope is what every instrumented touch is
    // verified against: lane s, step phase — identically at every thread
    // count.
    LaneScope scope(check_.get(), s, EnginePhase::Step);
    const obs::SpanScope span(trace_.get(), obs::SpanKind::StepLane, s, round_);
    const ShardRange range = shards_[s];
    SendLane& lane = lanes_[s];
    lane.stepped = 0;
    auto step_node = [&](NodeId v) {
      if (check_) check_->touch_node(v, "program state");
      NodeProgram& program = *programs_[v];
      Context ctx(*this, v, lane);
      if (starting) {
        program.on_start(ctx);
        if (!program.reactive()) lane.always_step.push_back(v);
      } else {
        program.on_round(ctx, inbox_span(v));
      }
      const std::uint8_t now = program.done() ? 1 : 0;
      lane.done_count += static_cast<int>(now) - static_cast<int>(done_state_[v]);
      done_state_[v] = now;
      ++lane.stepped;
    };
    if (everyone || lane.always_step.size() == range.end - range.begin) {
      for (NodeId v = range.begin; v < range.end; ++v) step_node(v);
    } else {
      // Merge the shard's recipients (one per inbox run of the arena
      // slice) with its always-step list; both ascend, so the nodes step
      // in id order exactly as in the all-nodes loop.
      std::uint32_t mail = arena_offsets_[range.begin];
      const std::uint32_t mail_end = arena_offsets_[range.end];
      std::size_t k = 0;
      while (true) {
        const NodeId next_mail =
            mail < mail_end ? arena_.header(mail).to : range.end;
        const NodeId next_always =
            k < lane.always_step.size() ? lane.always_step[k] : range.end;
        const NodeId v = std::min(next_mail, next_always);
        if (v == range.end) break;
        step_node(v);
        if (v == next_mail) mail = arena_offsets_[v + 1];
        if (v == next_always) ++k;
      }
    }
    if (check_probe_) check_probe_(*this, s);
  };
  pool_->run(step_shard);
}

void Network::phase_merge() {
  // Phase 2 — the merge barrier (sim/delivery.cpp): this round's sends
  // become next round's inboxes (congest admission included when
  // enforced). Around it, the pipeline bookkeeping: metrics, the trace
  // round record, the round counter.
  const std::uint64_t count = merge_barrier();
  metrics_.messages_total += count;
  metrics_.messages_per_round.push_back(count);
  delivered_last_round_ = count;
  if (trace_) {
    // Delivered-message word sizes: an O(delivered) scan of the 16-byte
    // header plane, paid only with tracing on. Post-admission, so under a
    // budget a deferred message is counted once, in the round its words
    // actually crossed.
    for (std::size_t i = 0; i < arena_.size(); ++i)
      trace_->message_words_hist().add(arena_.header(i).size_hint_words);
    // Close the round's profile. The engine hands over model counters and
    // never reads anything back (C12) — deltas and imbalance are computed
    // on the tracer's side of the fence.
    std::uint64_t stepped = 0;
    for (const auto& lane : lanes_) stepped += lane.stepped;
    trace_->end_round(round_, count, metrics_.words_total,
                      metrics_.deferrals_total, carry_total_, stepped,
                      debug_plane_allocations());
  }
  ++round_;
  metrics_.rounds = round_;
}

bool Network::all_done() const {
  // O(S): the step phase maintained each lane's done-counter by
  // transition, so no per-node (let alone virtual) work happens here.
  std::int64_t done = 0;
  for (const auto& lane : lanes_) done += lane.done_count;
  return done == static_cast<std::int64_t>(graph_->num_nodes());
}

bool Network::quiescent() const {
  // Phase 0 — quiesce check: no messages in flight (the last merge counted
  // what it moved, O(1)), nothing parked in a congest calendar (O(1),
  // written only at the merge barrier), and every program done (O(S) sum).
  return delivered_last_round_ == 0 && carry_total_ == 0 && all_done();
}

RunStats Network::run(std::size_t max_rounds) {
  return run_rounds(max_rounds, std::numeric_limits<std::size_t>::max());
}

RunStats Network::run_until_drained(std::size_t stall_cap) {
  return run_rounds(std::numeric_limits<std::size_t>::max(), stall_cap);
}

RunStats Network::run_rounds(std::size_t max_rounds, std::size_t stall_cap) {
  FL_REQUIRE(!programs_.empty(), "install programs before running");
  begin_if_needed();
  RunStats stats;
  // The round pipeline: quiesce check -> step shards -> merge lanes.
  // Stall rounds — round_silent() yet some program not done — count
  // against stall_cap; every other round retires pending traffic (a merge
  // delivered messages, or a parked message waits for the admission round
  // it was filed under, finite by the banking bound the admission pass
  // checks per message). A live protocol advances at least one logical
  // step per silent round (the event-driven barrier contract), so the
  // cumulative stall count is bounded by the protocol's own step count,
  // independent of any CONGEST stretch.
  std::size_t stalls = 0;
  while (round_ <= max_rounds) {
    bool quiet;
    {
      const obs::SpanScope span(trace_.get(), obs::SpanKind::Quiesce, 0,
                                round_);
      quiet = quiescent();
    }
    if (quiet) {
      stats.terminated = true;
      break;
    }
    if (round_silent()) {
      ++stalls;
      FL_REQUIRE(stalls <= stall_cap,
                 "protocol wedged: " + std::to_string(stalls) +
                     " silent rounds (nothing delivered, nothing carried) " +
                     "exceed the stall cap " + std::to_string(stall_cap) +
                     " at round " + std::to_string(round_) +
                     " with programs still not done — a phase failed to "
                     "advance on its barrier");
    }
    phase_step(/*starting=*/false);
    phase_merge();
  }
  stats.rounds = round_;
  stats.messages = metrics_.messages_total;
  return stats;
}

void Network::step(std::size_t rounds) {
  FL_REQUIRE(!programs_.empty(), "install programs before running");
  if (!started_) {
    begin_if_needed();
    if (rounds > 0) --rounds;
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    phase_step(/*starting=*/false);
    phase_merge();
  }
}

NodeProgram& Network::program(NodeId v) {
  FL_REQUIRE(v < programs_.size(), "node id out of range");
  return *programs_[v];
}

const NodeProgram& Network::program(NodeId v) const {
  FL_REQUIRE(v < programs_.size(), "node id out of range");
  return *programs_[v];
}

}  // namespace fl::sim
