#include "core/sampler.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace fl::core {

using graph::EdgeId;
using graph::kInvalidEdge;
using graph::kInvalidNode;
using graph::Multigraph;
using graph::NodeId;

namespace {

constexpr std::size_t kRemoved = std::numeric_limits<std::size_t>::max();

/// Labels for per-purpose random streams (trial index namespace).
constexpr std::uint64_t kCenterCoinLabel = 1'000'000'000ULL;

/// When the per-trial sample count exceeds the remaining pool size by this
/// factor, the probability that any specific remaining edge is missed is
/// (1−1/A)^{16A} < e^{−16}; we then treat the trial as exhaustive instead of
/// literally drawing — a pure CPU-time optimization that preserves the
/// algorithm's behaviour up to events rarer than the whp bar.
constexpr std::size_t kExhaustiveFactor = 16;

/// Sampling state of one virtual node during Cluster_j's first step.
/// Edges are addressed by *incidence index* (position in the node's sorted
/// incidence list) so that parallel-edge blocks are contiguous.
class NodeSampler {
 public:
  NodeSampler(const Multigraph& m, NodeId v, bool peel)
      : m_(&m), v_(v), peel_(peel) {
    const auto inc = m.incident(v);
    const std::size_t deg = inc.size();
    pos_.resize(deg);
    block_of_.resize(deg);
    active_.reserve(deg);
    // Build neighbour blocks (incidence is sorted by neighbour).
    NodeId last = kInvalidNode;
    for (std::size_t i = 0; i < deg; ++i) {
      if (inc[i].to != last) {
        last = inc[i].to;
        block_begin_.push_back(i);
        block_neighbor_.push_back(inc[i].to);
      }
      block_of_[i] = block_begin_.size() - 1;
      pos_[i] = active_.size();
      active_.push_back(i);
    }
    block_begin_.push_back(deg);  // sentinel
    block_queried_.assign(block_neighbor_.size(), false);
    block_hit_in_trial_.assign(block_neighbor_.size(), 0);
  }

  std::size_t active_count() const { return active_.size(); }
  std::size_t block_count() const { return block_neighbor_.size(); }
  std::size_t queried_blocks() const { return queried_count_; }
  bool exhausted() const { return active_.empty(); }
  bool all_blocks_queried() const {
    return queried_count_ == block_neighbor_.size();
  }

  /// Run one trial: draw `samples` edges u.a.r. with replacement from the
  /// *snapshot* of X_v (faithful to Pseudocode 2), then process new blocks.
  /// F_v growth is capped at `budget` mid-trial: once |F_v| reaches the
  /// budget the node is heavy by definition and further drawn blocks are
  /// ignored (not queried, not peeled) — this is what makes Lemma 10's
  /// per-trial O(n^{2^jδ}·polylog) edge accounting hold on dense graphs;
  /// without the cap a single trial could add its full n^{2^jδ+ε} draws.
  /// Appends to `outcome.f_edges`; returns the number of distinct query
  /// edges this trial (i.e. messages the distributed version would send).
  std::uint64_t run_trial(std::size_t samples, std::size_t budget,
                          util::Xoshiro256& rng, NodeOutcome& outcome) {
    ++trial_epoch_;
    const std::size_t pool = active_.size();
    if (pool == 0) return 0;

    std::uint64_t distinct_queries = 0;

    if (samples >= kExhaustiveFactor * pool) {
      // Exhaustive shortcut: every remaining edge gets queried.
      // Distinct query edges == remaining pool size.
      distinct_queries = pool;
      // Process every not-yet-queried block; chosen edge = first active
      // edge of the block.
      for (std::size_t b = 0; b < block_neighbor_.size(); ++b) {
        if (outcome.f_edges.size() >= budget) break;
        if (block_queried_[b]) continue;
        const std::size_t e = first_active_in_block(b);
        if (e == kRemoved) continue;  // peeled empty (shouldn't happen)
        query_block(b, e, outcome);
      }
      return distinct_queries;
    }

    // Draw all sample positions against the frozen snapshot first, exactly
    // as Pseudocode 2 draws the whole batch from X_v before processing.
    draws_.clear();
    for (std::size_t s = 0; s < samples; ++s)
      draws_.push_back(active_[rng.index(pool)]);

    // Distinct drawn edges = query messages; first draw of each new block
    // supplies the F_v edge.
    seen_edge_epoch_.resize(pos_.size(), 0);
    for (const std::size_t e : draws_) {
      if (seen_edge_epoch_[e] != trial_epoch_) {
        seen_edge_epoch_[e] = trial_epoch_;
        ++distinct_queries;
      }
      const std::size_t b = block_of_[e];
      if (!block_queried_[b] && block_hit_in_trial_[b] != trial_epoch_) {
        block_hit_in_trial_[b] = trial_epoch_;
        pending_blocks_.push_back({b, e});
      }
    }
    for (const auto& [b, e] : pending_blocks_) {
      if (outcome.f_edges.size() >= budget) break;
      query_block(b, e, outcome);
    }
    pending_blocks_.clear();
    return distinct_queries;
  }

 private:
  std::size_t first_active_in_block(std::size_t b) const {
    for (std::size_t i = block_begin_[b]; i < block_begin_[b + 1]; ++i)
      if (pos_[i] != kRemoved) return i;
    return kRemoved;
  }

  void query_block(std::size_t b, std::size_t chosen_inc_idx,
                   NodeOutcome& outcome) {
    FL_ENSURE(!block_queried_[b], "block queried twice");
    block_queried_[b] = true;
    ++queried_count_;
    const auto inc = m_->incident(v_);
    outcome.f_edges.emplace_back(block_neighbor_[b],
                                 inc[chosen_inc_idx].edge);
    if (peel_) {
      // Peel the whole parallel block (the Section 1.3 key idea): u reports
      // all its incident edge IDs, so v removes every (v,u) edge from X_v.
      for (std::size_t i = block_begin_[b]; i < block_begin_[b + 1]; ++i)
        remove_edge(i);
    } else {
      // Ablation: only the chosen edge leaves X_v.
      remove_edge(chosen_inc_idx);
    }
  }

  void remove_edge(std::size_t inc_idx) {
    const std::size_t p = pos_[inc_idx];
    if (p == kRemoved) return;
    const std::size_t last = active_.back();
    active_[p] = last;
    pos_[last] = p;
    active_.pop_back();
    pos_[inc_idx] = kRemoved;
  }

  const Multigraph* m_;
  NodeId v_;
  bool peel_;

  std::vector<std::size_t> pos_;        // inc idx -> active position
  std::vector<std::size_t> active_;     // active inc indices (X_v)
  std::vector<std::size_t> block_of_;   // inc idx -> block index
  std::vector<std::size_t> block_begin_;
  std::vector<NodeId> block_neighbor_;
  std::vector<bool> block_queried_;
  std::vector<unsigned> block_hit_in_trial_;
  std::vector<unsigned> seen_edge_epoch_;
  std::vector<std::size_t> draws_;
  std::vector<std::pair<std::size_t, std::size_t>> pending_blocks_;
  std::size_t queried_count_ = 0;
  unsigned trial_epoch_ = 0;
};

}  // namespace

std::vector<NodeOutcome> run_sampling_step(
    const Multigraph& m, const SamplerConfig& cfg, double n0, unsigned level,
    const std::vector<NodeId>& rep) {
  FL_REQUIRE(rep.size() == m.num_nodes(), "rep arity mismatch");
  const util::StreamFactory streams(cfg.seed);
  const std::size_t budget = cfg.budget(n0, level);
  const std::size_t trial_size = cfg.trial_size(n0, level);
  const unsigned trials = cfg.trials_per_level();

  std::vector<NodeOutcome> outcomes(m.num_nodes());
  for (NodeId v = 0; v < m.num_nodes(); ++v) {
    NodeSampler sampler(m, v, cfg.peel_parallel_edges);
    NodeOutcome& out = outcomes[v];

    unsigned i = 0;
    // Pseudocode 2, line 4: while (i <= 2h) && (|F_v| < budget) && X_v != ∅.
    while (i < trials && out.f_edges.size() < budget && !sampler.exhausted()) {
      auto rng = streams.trial_stream(rep[v], level, i);
      out.distinct_query_edges +=
          sampler.run_trial(trial_size, budget, rng, out);
      ++i;
    }
    out.trials_run = i;

    if (sampler.all_blocks_queried()) {
      out.status = NodeStatus::Light;
    } else if (out.f_edges.size() >= budget) {
      out.status = NodeStatus::Heavy;
    } else {
      out.status = NodeStatus::Neither;
    }
  }
  return outcomes;
}

SpannerResult build_spanner(const graph::Graph& g, const SamplerConfig& cfg) {
  return build_spanner_multigraph(Multigraph::from_graph(g), cfg,
                                  g.num_edges());
}

SpannerResult build_spanner_multigraph(const Multigraph& g0,
                                       const SamplerConfig& cfg,
                                       std::size_t num_physical_edges) {
  cfg.validate(g0.num_nodes());
  for (EdgeId e = 0; e < g0.num_edges(); ++e)
    FL_REQUIRE(g0.edge(e).physical < num_physical_edges,
               "physical edge id out of the declared id space");
  const NodeId num_nodes = g0.num_nodes();
  const double n0 = static_cast<double>(num_nodes);
  const util::StreamFactory streams(cfg.seed);

  SpannerResult result;
  result.stretch_bound = cfg.stretch_bound();

  Multigraph m = g0;
  std::vector<NodeId> rep(num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) rep[v] = v;

  std::vector<NodeId> phys_cluster(num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) phys_cluster[v] = v;
  result.trace.phys_cluster_at.push_back(phys_cluster);

  std::vector<bool> in_spanner(num_physical_edges, false);

  for (unsigned j = 0; j <= cfg.k; ++j) {
    LevelTrace lt;
    lt.level = j;
    lt.virtual_nodes = m.num_nodes();
    lt.virtual_edges = m.num_edges();
    lt.representative = rep;

    const auto outcomes = run_sampling_step(m, cfg, n0, j, rep);

    for (NodeId v = 0; v < m.num_nodes(); ++v) {
      const NodeOutcome& out = outcomes[v];
      switch (out.status) {
        case NodeStatus::Light: ++lt.light; break;
        case NodeStatus::Heavy: ++lt.heavy; break;
        case NodeStatus::Neither: ++lt.neither; break;
      }
      lt.query_edges += out.distinct_query_edges;
      lt.trials_run_total += out.trials_run;
      for (const auto& [nb, local_edge] : out.f_edges) {
        const EdgeId phys = m.edge(local_edge).physical;
        if (!in_spanner[phys]) {
          in_spanner[phys] = true;
          ++lt.spanner_added;
        }
      }
    }

    if (j < cfg.k) {
      // --- Second step: center marking and clustering (Pseudocode 2). ---
      const double pj = cfg.center_prob(n0, j);
      std::vector<bool> is_center(m.num_nodes(), false);
      std::vector<NodeId> cluster_of(m.num_nodes(), kInvalidNode);
      std::vector<NodeId> rep_next;

      for (NodeId v = 0; v < m.num_nodes(); ++v) {
        auto coin = streams.trial_stream(rep[v], j, kCenterCoinLabel);
        if (coin.bernoulli(pj)) {
          is_center[v] = true;
          cluster_of[v] = static_cast<NodeId>(rep_next.size());
          rep_next.push_back(rep[v]);
          ++lt.centers;
        }
      }
      for (NodeId v = 0; v < m.num_nodes(); ++v) {
        if (is_center[v]) continue;
        // Merge into the first queried center (discovery order realizes the
        // paper's "an arbitrary one is chosen").
        for (const auto& [nb, local_edge] : outcomes[v].f_edges) {
          (void)local_edge;
          if (is_center[nb]) {
            cluster_of[v] = cluster_of[nb];
            ++lt.clustered;
            break;
          }
        }
        if (cluster_of[v] == kInvalidNode) ++lt.unclustered;
      }

      lt.cluster_of = cluster_of;

      // Advance the physical partition map.
      for (NodeId p = 0; p < num_nodes; ++p) {
        if (phys_cluster[p] == kInvalidNode) continue;
        phys_cluster[p] = cluster_of[phys_cluster[p]];
      }
      result.trace.phys_cluster_at.push_back(phys_cluster);

      m = m.contract(cluster_of, static_cast<NodeId>(rep_next.size()));
      rep = std::move(rep_next);
    } else {
      // Final level: no clustering; every node of G_k is unclustered.
      lt.unclustered = m.num_nodes();
    }

    result.trace.levels.push_back(std::move(lt));
  }

  for (EdgeId e = 0; e < num_physical_edges; ++e)
    if (in_spanner[e]) result.edges.push_back(e);
  return result;
}

}  // namespace fl::core
