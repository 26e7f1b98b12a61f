// The synchronous LOCAL-model network simulator.
//
// Faithful to the fully synchronous LOCAL model of [Linial 92; Peleg 00]:
// computation proceeds in lockstep rounds; a message sent in round r is
// delivered at the start of round r+1; message size is unbounded; local
// computation is free. The simulator meters rounds and message counts —
// the two complexities the paper's theorems bound — in the paper's one
// knowledge model: unique edge IDs, known at both endpoints (node.hpp).
//
// Each round is an explicit three-phase pipeline (see Network::run_rounds):
//
//   quiesce check -> step shards -> merge lanes
//
//   * quiesce: O(S) over the S execution lanes — delivered-message count
//     from the last merge plus the lanes' done-counters; no per-node work;
//   * step: every lane steps its shard's nodes against a private SendLane
//     (exec.hpp), concurrently when there is more than one lane;
//   * merge: the lanes' outboxes become next round's inboxes — one
//     contiguous arena, counting-sorted by destination with CSR-style
//     per-node offsets (counts maintained incrementally by the send path),
//     bit-identical to sequential delivery for every lane count.
//
// With an enforced CongestConfig (congest.hpp) the merge grows a fourth
// step: an admission pass over the freshly merged arena that meters words
// per directed edge per round. It computes each message's admission round
// once, on arrival, and files a deferred message in a calendar bucket
// keyed by that round; a round pops only its own bucket. The pass is
// chunk-parallel over the destination shards — a directed edge delivers to
// exactly one node, so its budget state and calendar entries belong to
// exactly one chunk — and preserves the engine's bit-determinism across
// thread counts.
//
// The merge + admission machinery is the Network's own, in its own
// translation unit (sim/delivery.cpp); the storage it works on is
// documented on the private delivery members below.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "obs/trace.hpp"
#include "sim/check.hpp"
#include "sim/congest.hpp"
#include "sim/exec.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"

namespace fl::sim {

class Network {
 public:
  /// `graph` must outlive the network.
  Network(const graph::Graph& graph, std::uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Out of line: finalizes the trace artifact when tracing is on (a
  /// no-op — not even a branch worth naming — otherwise).
  ~Network();

  /// Install one program per node from a factory.
  void install(
      const std::function<std::unique_ptr<NodeProgram>(graph::NodeId)>& factory);

  /// Typed convenience: installs P(node_id, args...) on every node.
  template <typename P, typename... Args>
  void install_all(Args&&... args) {
    install([&](graph::NodeId v) {
      return std::make_unique<P>(v, args...);
    });
  }

  /// Run until global termination or `max_rounds`, whichever first. The
  /// same round loop as run_until_drained, with no stall cap.
  RunStats run(std::size_t max_rounds);

  /// Run exactly `rounds` more rounds (no termination check) — used by
  /// layered protocols that interleave phases.
  void step(std::size_t rounds);

  /// Run until global termination, with no guessed round cap: delivery
  /// rounds (traffic moved or messages parked) are uncapped — each one
  /// consumes finite pending work for a terminating protocol — and only
  /// *stall* rounds (round_silent() yet some program not done) count
  /// against `stall_cap`. A protocol that advances at least one logical
  /// step per silent round therefore needs a cap of (logical steps + a
  /// small constant), independent of any CONGEST stretch factor. Exceeding
  /// `stall_cap` throws ContractViolation naming the round and stall
  /// count (a wedged protocol). A parked message cannot wedge: the
  /// admission pass files it under a computed round, at most
  /// ceil(words / budget) rounds past its FIFO predecessor's (the banking
  /// bound), and asserts it pops in exactly that round. The same round
  /// loop as run, with no round cap.
  RunStats run_until_drained(std::size_t stall_cap);

  const graph::Graph& graph() const { return *graph_; }
  const Metrics& metrics() const { return metrics_; }
  std::size_t round() const { return round_; }

  /// Execution lane count (defaults to FL_SIM_THREADS, else 1); only
  /// legal before the first round. Shards are cut by degree weight
  /// (exec.hpp). Results are bit-identical for every thread count — the
  /// deterministic shard-merge contract — so this is purely a wall-clock
  /// knob.
  void set_parallelism(unsigned threads);
  unsigned parallelism() const { return threads_; }

  /// CONGEST bandwidth budget (defaults to unlimited = plain LOCAL); only
  /// legal before the first round. With a finite
  /// budget the round schedule stretches (deferred messages wait in a
  /// calendar at the merge barrier). Results stay bit-identical across
  /// thread counts for any fixed config.
  void set_congest(CongestConfig congest);
  CongestConfig congest() const { return congest_; }

  /// Messages held back by the budget and not yet delivered. Zero in LOCAL
  /// mode; a budgeted run is quiescent only once this drains.
  std::uint64_t carried_messages() const { return carry_total_; }

  /// The deterministic silence predicate for event-driven phase barriers:
  /// the last merge delivered nothing and no message is parked in a
  /// calendar — i.e. every message sent so far has been fully delivered
  /// *and* handled (any reaction it provoked would itself be in flight). Both
  /// facts are merge-barrier outputs, so the predicate is bit-identical at
  /// every FL_SIM_THREADS and any congest budget, and is stable for
  /// the whole step phase (it only mutates at the next merge). Programs
  /// read it through Context::network_silent().
  ///
  /// Oracle-assisted: silence is a *global* fact about the whole network
  /// that no real node can observe locally, so round counts of protocols
  /// that advance on it are oracle-assisted, not the cost of a deployable
  /// barrier (contract C13). Two protocols read such a fact: the
  /// distributed Sampler under a CONGEST budget ends each phase on
  /// silence (Context::network_silent), and the t-local broadcast ends
  /// each logical round on its carried half alone (Context::all_delivered,
  /// carried_messages() == 0).
  bool round_silent() const {
    return delivered_last_round_ == 0 && carry_total_ == 0;
  }

  /// Logical ownership / phase checking (sim/check.hpp; defaults to the
  /// FL_SIM_CHECK env probe, else off); only legal before the first round.
  /// With checking on, every instrumented touch of node state or of a
  /// merge-barrier structure asserts the stepping lane owns it and the
  /// engine is in the right phase — violations throw CheckViolation naming
  /// node, lane, phase and round. Purely observational: results are
  /// bit-identical with checking on or off.
  void set_check(bool enabled);
  bool check_enabled() const { return check_ != nullptr; }

  /// Tracing / profiling (obs/trace.hpp; defaults to the FL_SIM_TRACE env
  /// probe, else off); only legal before the first round. Observational
  /// by contract (docs/CONTRACTS.md C12): golden traces, Metrics and
  /// RunStats are bit-identical with tracing on or off at any thread
  /// count — timing flows out of the engine, never back in. With tracing
  /// off every instrumented site is one `if (trace_)` branch, exactly the
  /// FL_SIM_CHECK cost model.
  void set_trace(obs::TraceConfig cfg);
  bool trace_enabled() const { return trace_ != nullptr; }

  /// The live tracer (null when tracing is off). Protocol runners open
  /// named obs::ProtocolScope spans through it.
  obs::Tracer* tracer() { return trace_.get(); }
  const obs::Tracer* tracer() const { return trace_.get(); }

  /// One RoundProfile per completed round (empty when tracing is off).
  /// Model fields are bit-identical across thread counts; `_ns` fields
  /// and the imbalance ratio are advisory wall-clock data.
  std::span<const obs::RoundProfile> profile() const {
    if (trace_ == nullptr) return {};
    return {trace_->profiles().data(), trace_->profiles().size()};
  }

  /// Test-only: a probe invoked from inside every shard's step scope, after
  /// the shard's nodes were stepped, so tests can seed contract-violating
  /// touches from a running lane (see tests/test_check.cpp).
  void set_check_probe(std::function<void(Network&, unsigned)> probe);

  /// Test-only: touch node v's state from a synthetic step-phase scope
  /// bound to `as_lane` — the seeded cross-shard write.
  void debug_touch_node(graph::NodeId v, unsigned as_lane);

  /// Test-only: perform a (guarded, otherwise harmless) mutation of chunk's
  /// congest calendar — out of the admission phase this must throw.
  void debug_mutate_carry(unsigned chunk);

  /// Messages delivered to `v` this round — a zipped view into the
  /// delivery arena's header/payload planes, valid until the next round
  /// advances. Exposed for tests; programs receive it via on_round.
  InboxView inbox_span(graph::NodeId v) const;

  /// Test-only: total capacity-growth events across every message plane
  /// the engine owns (both arena buffers, all lane outboxes, all congest
  /// calendar slabs and admitted buffers). Steady-state rounds must not
  /// move this — the zero-allocation regression tests pin it.
  std::uint64_t debug_plane_allocations() const;

  NodeProgram& program(graph::NodeId v);
  const NodeProgram& program(graph::NodeId v) const;

  /// Typed accessor for result extraction after a run.
  ///
  /// Done-state contract: the engine re-reads done() only when it steps a
  /// node (quiescence is tracked by transition counters, not by scanning),
  /// so external mutation through this accessor must not change what
  /// done() returns while a run may still continue. Extraction after the
  /// final run — including mutating extraction like flush_final_records —
  /// is fine.
  template <typename P>
  P& program_as(graph::NodeId v) {
    return dynamic_cast<P&>(program(v));
  }

 private:
  friend class Context;

  void enqueue(SendLane& lane, graph::NodeId from, graph::EdgeId edge,
               Payload payload, std::uint32_t size_hint_words);
  void begin_if_needed();
  // The one round loop behind run() and run_until_drained().
  RunStats run_rounds(std::size_t max_rounds, std::size_t stall_cap);
  // The per-round phases, in execution order. phase_merge wraps the merge
  // barrier with the pipeline bookkeeping (metrics, trace round record,
  // round_).
  bool quiescent() const;
  void phase_step(bool starting);
  void phase_merge();
  bool all_done() const;  // O(S) sum of the lanes' done-counters

  // Delivery (sim/delivery.cpp). plan_delivery sizes the merge scratch and
  // the CONGEST state once the shard plan is final; merge_barrier drains
  // the lane outboxes into next round's inboxes (admission included when
  // the budget is enforced) and returns the messages delivered.
  void plan_delivery();
  std::uint64_t merge_barrier();
  void merge_lanes(std::uint64_t total);
  std::uint64_t congest_admit();

  const graph::Graph* graph_;
  util::StreamFactory streams_;

  std::vector<std::unique_ptr<NodeProgram>> programs_;
  std::vector<util::Xoshiro256> node_rngs_;
  std::vector<std::vector<graph::EdgeId>> incident_edges_;  // per node

  // Send-side cursor per node: protocols overwhelmingly send over their
  // incident edges in incidence order (flood loops), so enqueue resolves
  // `to` from the node's own incidence list — a sequential, cache-warm
  // read. Any other send (a reply over the inbound edge, a private edge
  // order) reads the global endpoints array, which also proves incidence.
  std::vector<std::uint32_t> send_cursor_;

  // Parallel execution (exec.hpp): nodes are split into contiguous,
  // degree-weighted shards, one SendLane per shard. Shards, lanes and the
  // pool (one per run, inline when there is a single lane) are finalized
  // by begin_if_needed() from threads_.
  unsigned threads_;
  std::vector<ShardRange> shards_;
  std::vector<SendLane> lanes_;
  std::unique_ptr<ExecPool> pool_;

  // Done-state cache, one byte per node, written only by the owning
  // shard's lane. phase_step re-reads program->done() once right after
  // stepping a node (done-state can only change inside on_start/on_round)
  // and bumps the lane's done-counter on transitions, so the quiesce
  // phase never re-scans programs: all_done() sums S counters.
  std::vector<std::uint8_t> done_state_;

  // Delivery storage: this round's messages, counting-sorted by
  // destination, held as structure-of-arrays planes (message.hpp). Node
  // v's inbox is the arena's element range [arena_offsets_[v],
  // arena_offsets_[v + 1]). arena_next_ is the persistent second buffer
  // of the double-buffered arena (the admission pass relocates into it
  // and the two swap), so steady-state rounds allocate nothing.
  MessagePlanes arena_;
  MessagePlanes arena_next_;
  std::vector<std::uint32_t> arena_offsets_;  // size n + 1
  std::vector<std::uint64_t> chunk_weight_;   // offsets scratch, size S

  // CONGEST admission state (congest.hpp): the budget, per-directed-edge
  // budget state and per-chunk calendars / admitted planes, all
  // destination-owned so the pass parallelizes with no shared writes.
  // None of it is sized in LOCAL mode.
  CongestConfig congest_;
  // The FIFO-with-banking rule in closed form: a directed edge only needs
  // to remember when its last queued message is admitted and how much
  // capacity that round has left, so a message's admission round is known
  // the moment it reaches admission (delivery.cpp, congest_admit).
  struct EdgeBudgetState {
    std::uint64_t tail_end = 0;  ///< round + 1 in which the edge's last
                                 ///< queued message is admitted; 0 = never
    std::uint64_t leftover = 0;  ///< capacity left in that round
  };
  // A calendar queue (Brown, CACM 1988) of deferred messages: every
  // deferred message is filed once, in the bucket of its admission round,
  // and that round pops only its own bucket. Bucket i of the ring holds
  // the messages due in rounds congruent to i modulo the ring size (a
  // power of two, grown only when a due round lies beyond the horizon);
  // each bucket is a FIFO linked through one slab whose slots are
  // recycled through a free list, so the slab's capacity tracks the peak
  // number of parked messages and steady-state rounds allocate nothing.
  struct CongestChunk {
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    struct Bucket {
      std::uint32_t head = kNil;
      std::uint32_t tail = kNil;
    };
    MessagePlanes slab;                    // parked messages, by slot
    std::vector<std::uint64_t> due_round;  // per slot: admission round
    std::vector<std::uint32_t> next;       // per slot: bucket / free link
    std::uint32_t free_head = kNil;
    std::vector<Bucket> ring = std::vector<Bucket>(2);
    std::vector<std::uint32_t> popped;  // this round's slots, by destination
    MessagePlanes admitted;             // this round, destination-ascending
    std::uint64_t parked = 0;           // messages filed and not yet popped
    // Tracing only: entry k counts the chunk's directed edges with k
    // messages parked (feeds the edge_carry histogram).
    std::vector<std::uint64_t> edges_at_occupancy;

    // Park a message due in round `due` (> `round`, the current one) at
    // the tail of its bucket, growing the ring if `due` is beyond it.
    void file(std::uint64_t round, std::uint64_t due, const MessageHeader& h,
              Payload&& p);
    // Return a popped slot (its payload already moved out) to the slab.
    void release(std::uint32_t slot) {
      next[slot] = free_head;
      free_head = slot;
    }
    // Set a directed edge's parked count (its congest_occupancy_ entry)
    // to `count`, keeping edges_at_occupancy in step.
    void recount(std::uint32_t& on_edge, std::uint32_t count);
  };
  std::vector<EdgeBudgetState> congest_edges_;  // size 2m: 2e + (to>from)
  std::vector<CongestChunk> congest_chunks_;    // one per shard
  std::vector<std::uint32_t> congest_counts_;   // admitted per node, size n
  // Tracing only: messages parked per directed edge, size 2m.
  std::vector<std::uint32_t> congest_occupancy_;
  // Messages parked across all calendars. Written only by the admission
  // pass, so round_silent() and carried_messages() are O(1) reads that
  // mutate only at the merge — the stability contract programs rely on.
  std::uint64_t carry_total_ = 0;

  // Logical ownership / phase checker (check.hpp). Null unless FL_SIM_CHECK
  // (or set_check) opted in — every instrumentation site below is a single
  // `if (check_)` branch, so the hot path is untouched with checking off.
  std::unique_ptr<OwnershipChecker> check_;
  std::function<void(Network&, unsigned)> check_probe_;  // test-only

  // Tracer (obs/trace.hpp). Null unless FL_SIM_TRACE (or set_trace) opted
  // in — the same null-pointer cost model as check_: one predictable
  // branch per instrumented site when tracing is off. Strictly
  // write-only from the engine's perspective (C12): the engine opens
  // scopes and reports model counters; it never reads a timing back.
  std::unique_ptr<obs::Tracer> trace_;

  // Messages moved into the arena by the last merge — the O(1) half of
  // the quiesce check.
  std::uint64_t delivered_last_round_ = 0;
  std::size_t round_ = 0;
  bool started_ = false;
  Metrics metrics_;
};

}  // namespace fl::sim
