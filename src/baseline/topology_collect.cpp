#include "baseline/topology_collect.hpp"

#include <memory>

#include "baseline/baswana_sen.hpp"
#include "graph/algorithms.hpp"
#include "sim/network.hpp"
#include "sim/wire.hpp"
#include "util/assert.hpp"

namespace fl::baseline {

using graph::EdgeId;
using graph::Graph;
using graph::kInvalidEdge;
using graph::NodeId;

namespace {

struct MsgWave {};                 // BFS wave
struct MsgChild {};                // "you are my parent"
struct MsgDecline {};              // "I already have a parent"
struct MsgUpcast {                 // subtree incidence lists, aggregated
  std::shared_ptr<std::vector<EdgeId>> edges;
};
struct MsgResult {                 // the leader's spanner, broadcast down
  std::shared_ptr<const std::vector<EdgeId>> edges;
};

// The shared-list payloads' content is the list they point at; the
// markers carry nothing.
FL_WIRE_FIELDS(MsgUpcast, edges);
FL_WIRE_FIELDS(MsgResult, edges);

/// States: wait wave -> handshake -> wait child upcasts -> upcast -> wait
/// result -> forward result -> done. The leader (node 0) computes the
/// spanner when its upcast completes.
class CollectNode final : public sim::NodeProgram {
 public:
  CollectNode(NodeId self, const Graph& g, unsigned k, std::uint64_t seed)
      : self_(self), g_(&g), k_(k), seed_(seed) {}

  const std::vector<EdgeId>& result() const {
    FL_REQUIRE(done_, "result queried before termination");
    return *result_;
  }

  void on_start(sim::Context& ctx) override {
    if (self_ == 0) {
      has_parent_ = true;  // the root
      for (const EdgeId e : ctx.incident_edges()) ctx.send(e, MsgWave{}, 1);
      waiting_replies_ = ctx.incident_edges().size();
      maybe_finish_handshake(ctx);
    }
  }

  void on_round(sim::Context& ctx, sim::InboxView inbox) override {
    for (const auto& m : inbox) {
      if (sim::payload_if<MsgWave>(m) != nullptr) {
        if (!has_parent_) {
          has_parent_ = true;
          parent_edge_ = m.edge();
          ctx.send(m.edge(), MsgChild{}, 1);
          // Propagate the wave everywhere else; expect replies from those.
          waiting_replies_ = 0;
          for (const EdgeId e : ctx.incident_edges())
            if (e != parent_edge_) {
              ctx.send(e, MsgWave{}, 1);
              ++waiting_replies_;
            }
          maybe_finish_handshake(ctx);
        } else {
          ctx.send(m.edge(), MsgDecline{}, 1);
        }
        continue;
      }
      if (sim::payload_if<MsgChild>(m) != nullptr) {
        child_edges_.push_back(m.edge());
        --waiting_replies_;
        maybe_finish_handshake(ctx);
        continue;
      }
      if (sim::payload_if<MsgDecline>(m) != nullptr) {
        --waiting_replies_;
        maybe_finish_handshake(ctx);
        continue;
      }
      if (const auto* up = sim::payload_if<MsgUpcast>(m)) {
        // A fast child (e.g. a leaf) can upcast in the same round as its
        // MsgChild handshake; buffer until our own handshake completes.
        if (!handshake_done_) {
          early_upcasts_.push_back(up->edges);
        } else {
          acc_->insert(acc_->end(), up->edges->begin(), up->edges->end());
          --waiting_upcasts_;
          maybe_upcast(ctx);
        }
        continue;
      }
      if (const auto* res = sim::payload_if<MsgResult>(m)) {
        deliver_result(ctx, res->edges);
        continue;
      }
      FL_ENSURE(false, "unknown message in topology collect");
    }
  }

  bool done() const override { return done_; }

 private:
  void maybe_finish_handshake(sim::Context& ctx) {
    if (handshake_done_ || !has_parent_ || waiting_replies_ != 0) return;
    handshake_done_ = true;
    // Initialize the upcast accumulator with my own incidence list.
    acc_ = std::make_shared<std::vector<EdgeId>>();
    for (const EdgeId e : ctx.incident_edges()) acc_->push_back(e);
    waiting_upcasts_ = child_edges_.size();
    for (const auto& early : early_upcasts_) {
      acc_->insert(acc_->end(), early->begin(), early->end());
      --waiting_upcasts_;
    }
    early_upcasts_.clear();
    maybe_upcast(ctx);
  }

  void maybe_upcast(sim::Context& ctx) {
    if (!handshake_done_ || upcast_done_ || waiting_upcasts_ != 0) return;
    upcast_done_ = true;
    if (self_ != 0) {
      ctx.send(parent_edge_, MsgUpcast{acc_},
               static_cast<std::uint32_t>(acc_->size() + 1));
      return;
    }
    // Leader: it now holds every incidence list (the union of `acc_` is the
    // whole edge set). Compute the spanner centrally and broadcast it.
    // (The central computation reads the Graph object directly — the
    // information content equals the collected lists; metering already
    // charged the collection.)
    auto spanner = std::make_shared<const std::vector<EdgeId>>(
        build_baswana_sen(*g_, k_, seed_).edges);
    deliver_result(ctx, spanner);
  }

  void deliver_result(sim::Context& ctx, const std::shared_ptr<const std::vector<EdgeId>>& edges) {
    if (done_) return;
    done_ = true;
    result_ = edges;
    for (const EdgeId e : child_edges_)
      ctx.send(e, MsgResult{edges},
               static_cast<std::uint32_t>(edges->size() + 1));
  }

  NodeId self_;
  const Graph* g_;
  unsigned k_;
  std::uint64_t seed_;

  bool has_parent_ = false;
  bool handshake_done_ = false;
  bool upcast_done_ = false;
  bool done_ = false;
  EdgeId parent_edge_ = kInvalidEdge;
  std::size_t waiting_replies_ = 0;
  std::size_t waiting_upcasts_ = 0;
  std::vector<EdgeId> child_edges_;
  std::vector<std::shared_ptr<std::vector<EdgeId>>> early_upcasts_;
  std::shared_ptr<std::vector<EdgeId>> acc_;
  std::shared_ptr<const std::vector<EdgeId>> result_;
};

}  // namespace

TopologyCollectRun run_topology_collect(const Graph& g, unsigned k,
                                        std::uint64_t seed) {
  FL_REQUIRE(g.num_nodes() >= 1, "empty graph");
  FL_REQUIRE(graph::is_connected(g), "topology collect needs a connected graph");
  sim::Network net(g, seed);
  net.install([&](NodeId v) {
    return std::make_unique<CollectNode>(v, g, k, seed);
  });

  TopologyCollectRun run;
  run.k = k;
  // 2D for wave+handshake, 2D for upcast+downcast, plus slack.
  run.stats = net.run(6 * static_cast<std::size_t>(
                          graph::diameter_double_sweep(g)) + 16);
  FL_REQUIRE(run.stats.terminated, "topology collect did not terminate");
  run.metrics = net.metrics();
  run.edges = net.program_as<CollectNode>(0).result();
  return run;
}

}  // namespace fl::baseline
