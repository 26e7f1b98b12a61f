#include "localsim/tlocal_broadcast.hpp"

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

struct MsgOrigins {
  std::shared_ptr<const std::vector<NodeId>> origins;
};

// The bundle's content: the origins its sender learned in the previous
// logical round.
FL_WIRE_FIELDS(MsgOrigins, origins);

/// Per-node flooding program over a fixed incident edge subset. The flood
/// runs R logical rounds. At the start of each, a node sends everything it
/// learned in the previous one as one bundle per subset edge — the
/// LOCAL-model accounting of Lemma 12. A logical round ends on the first
/// step at which nothing is parked in a congest calendar
/// (Context::all_delivered), so every bundle of the round has arrived and
/// each node has learned exactly the origins at H-distance r in logical
/// round r, under any delivery schedule. In LOCAL mode that is every step:
/// logical and engine rounds coincide.
class FloodNode final : public sim::NodeProgram {
 public:
  FloodNode(NodeId self, std::shared_ptr<const std::vector<bool>> edge_in,
            unsigned rounds, NodeId n)
      : self_(self), edge_in_(std::move(edge_in)), rounds_(rounds), n_(n) {}

  /// One ascending scan of the known set extracts it already sorted.
  std::vector<NodeId> known_sorted() const {
    std::vector<NodeId> out;
    out.reserve(known_count_);
    for (NodeId u = 0; u < n_; ++u)
      if (known_[u]) out.push_back(u);
    return out;
  }

  void on_start(sim::Context& ctx) override {
    known_.assign(n_, false);
    known_[self_] = true;
    known_count_ = 1;
    pending_.push_back(self_);
    if (rounds_ > 0) send_pending(ctx);
  }

  void on_round(sim::Context& ctx, sim::InboxView inbox) override {
    // What the last logical round brings is never sent on.
    const bool forward = closed_ + 1 < rounds_;
    for (const auto& m : inbox) {
      for (const NodeId id : *sim::payload_as<MsgOrigins>(m).origins) {
        if (known_[id]) continue;
        known_[id] = true;
        ++known_count_;
        if (forward) pending_.push_back(id);
      }
    }
    // Every bundle of the open logical round has arrived: close it, and
    // open the next one unless it was the last.
    if (closed_ < rounds_ && ctx.all_delivered()) {
      ++closed_;
      if (closed_ < rounds_) send_pending(ctx);
    }
  }

  bool done() const override { return closed_ == rounds_; }

 private:
  void send_pending(sim::Context& ctx) {
    if (pending_.empty()) return;
    auto batch = std::make_shared<const std::vector<NodeId>>(
        std::exchange(pending_, {}));
    for (const EdgeId e : ctx.incident_edges()) {
      if (!(*edge_in_)[e]) continue;
      ctx.send(e, MsgOrigins{batch},
               static_cast<std::uint32_t>(batch->size()));
    }
  }

  NodeId self_;
  std::shared_ptr<const std::vector<bool>> edge_in_;
  unsigned rounds_;
  NodeId n_;
  unsigned closed_ = 0;          // logical rounds ended so far
  std::size_t known_count_ = 0;  // |{u : known_[u]}|
  std::vector<bool> known_;      // known_[u]: origin u has reached this node
  std::vector<NodeId> pending_;  // learned in the open logical round
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
    run.reached.push_back(net.program_as<FloodNode>(v).known_sorted());
  return run;
}

}  // namespace fl::localsim
