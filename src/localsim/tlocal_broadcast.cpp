#include "localsim/tlocal_broadcast.hpp"

#include <algorithm>
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
  /// How many further hops this bundle's origins may still travel. In
  /// LOCAL mode a bundle arriving in round r always carries R - r (rounds
  /// and hops coincide), so the field is redundant there; under a CONGEST
  /// budget it is what keeps the flood hop-limited when delivery lags.
  std::uint32_t hops_left = 0;
};

// The bundle's content: the origin list and its remaining hop budget.
FL_WIRE_FIELDS(MsgOrigins, origins, hops_left);

/// Per-node flooding program over a fixed incident edge subset. One rule:
/// each round a node groups everything it learned by remaining hop budget
/// and sends each group as one bundle per subset edge — the LOCAL-model
/// accounting of Lemma 12. An origin is learned when it arrives with a
/// larger remaining budget than any copy seen before. In LOCAL mode that
/// is only the first arrival (it rides the BFS-shortest path, so it
/// carries the maximal budget), and hop budgets cut forwarding off exactly
/// where a round counter would; under a CONGEST budget a delayed shorter
/// path can bring a larger budget later, and forwarding it keeps coverage
/// exactly B_{H,R}(v) under any delivery schedule.
class FloodNode final : public sim::NodeProgram {
 public:
  FloodNode(NodeId self, std::shared_ptr<const std::vector<bool>> edge_in,
            unsigned rounds, NodeId n)
      : self_(self), edge_in_(std::move(edge_in)), rounds_(rounds), n_(n) {}

  /// The known set is exactly {u : best_hops_[u] >= 0}, so one ascending
  /// scan extracts it already sorted.
  std::vector<NodeId> known_sorted() const {
    std::vector<NodeId> out;
    out.reserve(known_count_);
    for (NodeId u = 0; u < n_; ++u)
      if (best_hops_[u] >= 0) out.push_back(u);
    return out;
  }

  void on_start(sim::Context& ctx) override {
    best_hops_.assign(n_, -1);
    best_hops_[self_] = static_cast<std::int32_t>(rounds_);
    known_count_ = 1;
    if (rounds_ == 0) {
      finished_ = true;
      return;
    }
    auto batch = std::make_shared<const std::vector<NodeId>>(1, self_);
    send_over_subset(ctx, batch, rounds_ - 1);
  }

  void on_round(sim::Context& ctx, sim::InboxView inbox) override {
    // Record and regroup everything heard — even after the local send
    // schedule ended, because under a finite bandwidth budget bundles
    // straggle in late and must still be learned and forwarded. Groups
    // live in a flat vector keyed by remaining budget: in LOCAL mode every
    // arrival of a round carries the same budget (exactly one group, found
    // without a tree in the transformer's hot path), and under a budget
    // the handful of distinct keys keeps the linear scan trivial.
    struct Group {
      std::uint32_t hops;
      std::vector<NodeId> ids;
    };
    std::vector<Group> fresh;
    auto bucket = [&](std::uint32_t h) -> std::vector<NodeId>& {
      for (auto& grp : fresh)
        if (grp.hops == h) return grp.ids;
      return fresh.emplace_back(Group{h, {}}).ids;
    };
    for (const auto& m : inbox) {
      const auto& o = sim::payload_as<MsgOrigins>(m);
      const auto hops = static_cast<std::int32_t>(o.hops_left);
      for (const NodeId id : *o.origins) {
        if (hops <= best_hops_[id]) continue;
        if (best_hops_[id] < 0) ++known_count_;
        best_hops_[id] = hops;
        if (hops >= 1)
          bucket(static_cast<std::uint32_t>(hops - 1)).push_back(id);
      }
    }
    // The done-state schedule is untouched by congestion: after `rounds_`
    // steps this node's own sending duty is over (hop budgets gate any
    // residual forwarding), which keeps LOCAL-mode termination — and every
    // pinned golden trace — bit-identical to the seed behaviour.
    if (!finished_) {
      ++send_round_;
      if (send_round_ >= rounds_) finished_ = true;
    }
    // Largest remaining budget first: hop keys are unique, so the order is
    // fixed and lane-independent.
    std::sort(fresh.begin(), fresh.end(),
              [](const Group& a, const Group& b) { return a.hops > b.hops; });
    for (auto& grp : fresh) {
      auto batch =
          std::make_shared<const std::vector<NodeId>>(std::move(grp.ids));
      send_over_subset(ctx, batch, grp.hops);
    }
  }

  bool done() const override { return finished_; }

 private:
  void send_over_subset(sim::Context& ctx,
                        const std::shared_ptr<const std::vector<NodeId>>& batch,
                        std::uint32_t hops_left) {
    for (const EdgeId e : ctx.incident_edges()) {
      if (!(*edge_in_)[e]) continue;
      ctx.send(e, MsgOrigins{batch, hops_left},
               static_cast<std::uint32_t>(batch->size()));
    }
  }

  NodeId self_;
  std::shared_ptr<const std::vector<bool>> edge_in_;
  unsigned rounds_;
  NodeId n_;
  unsigned send_round_ = 0;
  bool finished_ = false;
  std::size_t known_count_ = 0;  // |{u : best_hops_[u] >= 0}|
  // best_hops_[u] = largest remaining hop budget this node has seen for
  // origin u (-1 = never heard). In LOCAL mode it only ever improves once.
  std::vector<std::int32_t> best_hops_;
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
  // the flood by whatever it actually costs), and the hop-budgeted flood
  // never idles while alive, so the stall cap only covers framing rounds.
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
