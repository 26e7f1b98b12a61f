// t-local broadcast: the flooding program behind run_tlocal_broadcast.
// Bundles carry their origins as 64-origin blocks and each node keeps its
// known set as a bitset of the same blocks, which the run moves out as the
// node's reached set; every send bills the number of origins in the bundle
// (one LOCAL word per ID), not the encoding's size.
#include "localsim/tlocal_broadcast.hpp"

#include <bit>
#include <memory>
#include <utility>

#include "sim/network.hpp"
#include "sim/wire.hpp"
#include "util/assert.hpp"

namespace fl::localsim {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

namespace {

/// One 64-origin block of a bundle: bit b of `bits` stands for origin
/// 64·index + b.
struct OriginBlock {
  std::uint32_t index;
  std::uint64_t bits;
};

struct MsgOrigins {
  std::shared_ptr<const std::vector<OriginBlock>> blocks;
};

// The bundle's content: the origins its sender learned in the previous
// logical round, as nonzero blocks in no particular order. Its word bill
// is the sum of the blocks' popcounts.
FL_WIRE_FIELDS(MsgOrigins, blocks);

/// Per-node flooding program over a fixed incident edge subset. The flood
/// runs R logical rounds. At the start of each, a node sends everything it
/// learned in the previous one as one bundle per subset edge — the
/// LOCAL-model accounting of Lemma 12. A logical round ends on the first
/// step at which nothing is parked in a congest calendar
/// (Context::all_delivered), so every bundle of the round has arrived and
/// each node has learned exactly the origins at H-distance r in logical
/// round r, under any delivery schedule. In LOCAL mode that is every step:
/// logical and engine rounds coincide.
///
/// The known set is a bitset of 64-origin blocks, so a received block
/// merges in one word operation. The first time a block gains bits in the
/// open logical round, the node records the block's old mask (and a dirty
/// flag, so it is recorded once); at send time the block's new origins are
/// its current mask minus that old one.
class FloodNode final : public sim::NodeProgram {
 public:
  FloodNode(NodeId self, std::shared_ptr<const std::vector<bool>> edge_in,
            unsigned rounds, NodeId n)
      : self_(self), edge_in_(std::move(edge_in)), rounds_(rounds), n_(n) {}

  /// Hands the known set over once the run is over.
  OriginSet take_known() { return std::move(known_); }

  void on_start(sim::Context& ctx) override {
    known_.words.assign((static_cast<std::size_t>(n_) + 63) / 64, 0);
    dirty_.assign((known_.words.size() + 63) / 64, 0);
    learn(self_ / 64, std::uint64_t{1} << (self_ % 64), true);
    if (rounds_ > 0) send_pending(ctx);
  }

  void on_round(sim::Context& ctx, sim::InboxView inbox) override {
    // What the last logical round brings is never sent on.
    const bool forward = closed_ + 1 < rounds_;
    for (const auto& m : inbox)
      for (const OriginBlock& b : *sim::payload_as<MsgOrigins>(m).blocks)
        learn(b.index, b.bits, forward);
    // Every bundle of the open logical round has arrived: close it, and
    // open the next one unless it was the last.
    if (closed_ < rounds_ && ctx.all_delivered()) {
      ++closed_;
      if (closed_ < rounds_) send_pending(ctx);
    }
  }

  bool done() const override { return closed_ == rounds_; }

 private:
  /// Merges one block of origins into the known set; with `forward`, the
  /// new ones are queued for the next send.
  void learn(std::uint32_t i, std::uint64_t bits, bool forward) {
    std::uint64_t& word = known_.words[i];
    const std::uint64_t fresh = bits & ~word;
    if (fresh == 0) return;
    if (forward) {
      std::uint64_t& flags = dirty_[i / 64];
      const std::uint64_t flag = std::uint64_t{1} << (i % 64);
      if ((flags & flag) == 0) {
        flags |= flag;
        pending_.push_back({i, word});
      }
    }
    word |= fresh;
    known_.count += static_cast<std::size_t>(std::popcount(fresh));
  }

  void send_pending(sim::Context& ctx) {
    if (pending_.empty()) return;
    std::uint32_t words = 0;
    for (OriginBlock& b : pending_) {
      dirty_[b.index / 64] &= ~(std::uint64_t{1} << (b.index % 64));
      b.bits = known_.words[b.index] & ~b.bits;  // old mask -> new origins
      words += static_cast<std::uint32_t>(std::popcount(b.bits));
    }
    auto batch = std::make_shared<const std::vector<OriginBlock>>(
        std::exchange(pending_, {}));
    for (const EdgeId e : ctx.incident_edges()) {
      if (!(*edge_in_)[e]) continue;
      ctx.send(e, MsgOrigins{batch}, words);
    }
  }

  NodeId self_;
  std::shared_ptr<const std::vector<bool>> edge_in_;
  unsigned rounds_;
  NodeId n_;
  unsigned closed_ = 0;               // logical rounds ended so far
  OriginSet known_;                   // origins that have reached this node
  std::vector<std::uint64_t> dirty_;  // bit i: block i is in pending_
  // Blocks that gained origins in the open logical round, each holding its
  // mask from before the first gain until send_pending turns it into the
  // gained origins.
  std::vector<OriginBlock> pending_;
};

}  // namespace

std::vector<EdgeId> all_edges(const Graph& g) {
  std::vector<EdgeId> out(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) out[e] = e;
  return out;
}

BroadcastRun run_tlocal_broadcast(const Graph& g,
                                  const std::vector<EdgeId>& edges,
                                  unsigned rounds, std::uint64_t seed,
                                  sim::CongestConfig congest) {
  auto edge_in = std::make_shared<std::vector<bool>>(g.num_edges(), false);
  for (const EdgeId e : edges) {
    FL_REQUIRE(e < g.num_edges(), "broadcast edge id out of range");
    (*edge_in)[e] = true;
  }
  sim::Network net(g, seed);
  net.set_congest(congest);
  net.install([&](NodeId v) {
    return std::make_unique<FloodNode>(v, edge_in, rounds, g.num_nodes());
  });

  BroadcastRun run;
  // Event-driven drain: delivery rounds are uncapped (a budget stretches
  // the flood by whatever it actually costs). A silent round has nothing
  // parked, so it closes a logical round at every node: stall rounds are
  // at most R, and the cap adds a few framing rounds.
  const std::size_t stall_cap = static_cast<std::size_t>(rounds) + 4;
  {
    // Named protocol span on the engine track (no-op when tracing is off)
    // so a trace of a composed run shows which protocol owns which rounds.
    const obs::ProtocolScope span(net.tracer(), "tlocal_broadcast");
    run.stats = net.run_until_drained(stall_cap);
  }
  FL_REQUIRE(run.stats.terminated, "broadcast did not terminate");
  run.metrics = net.metrics();
  run.reached.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    run.reached.push_back(net.program_as<FloodNode>(v).take_known());
  return run;
}

}  // namespace fl::localsim
