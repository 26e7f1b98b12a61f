// Node-program interface for the synchronous LOCAL simulator.
//
// A protocol is a class derived from NodeProgram, instantiated once per
// node. Each round the network calls on_round() with the node's inbox (a
// reactive program only when it has mail or the round is silent — see
// NodeProgram::reactive); the program reacts and sends messages through
// the Context. The model assumptions of the paper (Section 1.1):
//   * nodes know an O(1)-approximate upper bound on log n. The driver that
//     builds a program hands it n itself, the tightest such bound (the
//     distributed Sampler's SamplerNode gets it from
//     run_distributed_sampler);
//   * unique edge IDs known to both endpoints -> Context::incident_edges().
// Nodes have NO other a-priori topology knowledge — Context has no call that
// reveals a neighbour's ID — and programs must not touch the Graph directly
// (the simulator owns it).
#pragma once

#include <cstdint>
#include <span>

#include "graph/ids.hpp"
#include "sim/message.hpp"
#include "util/rng.hpp"

namespace fl::sim {

class Network;
struct SendLane;

/// Per-node view of the network handed to programs each round.
///
/// Only the engine makes a Context: it binds one to the execution lane
/// stepping the node, for the duration of that step, so a node acts only
/// inside its own round (the model of Section 1.1). Sends land in that
/// lane's private outbox, so parallel shard stepping (see exec.hpp) never
/// contends on shared send state.
class Context {
 public:
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  graph::NodeId self() const { return self_; }

  /// Unique IDs of this node's incident edges, known at both endpoints.
  std::span<const graph::EdgeId> incident_edges() const;

  /// Send `payload` over `edge` this round; delivered next round — unless
  /// the network enforces a CONGEST budget (sim/congest.hpp), in which
  /// case delivery may slip to a later round once the edge's words-per-
  /// round limit fills (order per edge stays FIFO). `edge` must be one of
  /// incident_edges(); any other id throws ContractViolation.
  /// `size_hint_words` is the message's logical size against that budget
  /// and the words metric; it is clamped to at least 1 (a message is never
  /// free). Any value that fits Payload's 24-byte inline buffer converts to
  /// Payload; a larger, over-aligned or throwing-move struct does not
  /// compile (payload.hpp).
  void send(graph::EdgeId edge, Payload payload,
            std::uint32_t size_hint_words = 1);

  /// Current round number (0-based).
  std::size_t round() const;

  /// This node's private random stream (deterministic per run seed).
  util::Xoshiro256& rng();

  /// Event-driven barrier fact (Network::round_silent): true when the last
  /// merge delivered nothing and no message is parked in a congest
  /// calendar — i.e. all traffic sent so far has drained. A merge-barrier
  /// output, identical for every node in the round and bit-identical at
  /// any thread count or CONGEST budget; stable for the whole step phase.
  /// Phase-scheduled protocols advance their logical phase on silence
  /// instead of counting provisioned rounds. An oracle: no real node can
  /// observe global silence, so round counts that rest on it are
  /// oracle-assisted (contract C13).
  bool network_silent() const;

  /// Drain fact (Network::carried_messages() == 0): no message is parked
  /// in a congest calendar, so every message sent before this step has
  /// been delivered — at the latest in this step's inbox. Always true in
  /// LOCAL mode. A merge-barrier output with the same guarantees as
  /// network_silent(); the t-local broadcast ends each logical round on
  /// it. An oracle as well: round counts that rest on it are
  /// oracle-assisted (contract C13).
  bool all_delivered() const;

 private:
  friend class Network;
  Context(Network& net, graph::NodeId self, SendLane& lane)
      : net_(&net), self_(self), lane_(&lane) {}

  Network* net_;
  graph::NodeId self_;
  SendLane* lane_;  ///< the lane stepping this node
};

/// Base class for protocols. One instance per node.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called once, before the first round. May send messages.
  virtual void on_start(Context& ctx) = 0;

  /// Called once per round (for a reactive program, only in the rounds
  /// reactive() names) with all messages delivered this round. The
  /// inbox is a zipped view into the delivery arena's header/payload
  /// planes (message.hpp); views and payload references obtained from it
  /// are valid only until on_round returns.
  virtual void on_round(Context& ctx, InboxView inbox) = 0;

  /// A network halts when every program reports done() and no messages are
  /// in flight. Programs may keep receiving messages after done() turns
  /// true (e.g. stragglers); they simply go back to not-done if needed.
  ///
  /// Contract: the engine re-reads done() exactly once per step, right
  /// after on_start/on_round returns — the only moments done-state may
  /// change — and tracks transitions in per-shard counters (so the
  /// quiesce check does no per-node work). done() must therefore be a
  /// cheap, side-effect-free predicate of the program's state, and that
  /// state must not be mutated from outside the simulation while a run
  /// may still continue.
  virtual bool done() const = 0;

  /// Reactive contract: a program that returns true promises that
  /// on_round with an empty inbox, on a round that is not
  /// Context::network_silent(), is a no-op — no send, no RNG draw, no
  /// state change, so done() cannot change either. The engine reads the
  /// flag once per node, right after on_start, and from then on skips
  /// such calls: outside the start round and silent rounds (which step
  /// every node), a round steps only the nodes with mail plus every
  /// non-reactive node. A skipped node is untouched that round, so its
  /// on_round must not count rounds (Context::round() still reads the
  /// true round number whenever it is stepped). The default, false, steps
  /// the node every round.
  virtual bool reactive() const { return false; }
};

}  // namespace fl::sim
