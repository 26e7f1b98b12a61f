#include "core/distributed_sampler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_set>
#include <utility>
#include <variant>

#include "sim/wire.hpp"
#include "util/assert.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "util/sorted_intersection.hpp"

namespace fl::core {

using graph::EdgeId;
using graph::kInvalidEdge;
using graph::kInvalidNode;
using graph::NodeId;

namespace {

constexpr std::uint64_t kCenterCoinLabel = 1'000'000'000ULL;
constexpr std::size_t kExhaustiveFactor = 16;
constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

// ------------------------------------------------------------- payloads
//
// Each message type states, next to its fields, the MessageBreakdown role
// it is billed to (kRole) and its CONGEST width in words (words()), so
// SamplerNode::send meters every send from one formula per type.

using EdgeList = std::shared_ptr<const std::vector<EdgeId>>;
using Role = std::uint64_t MessageBreakdown::*;
constexpr Role kQueries = &MessageBreakdown::queries;
constexpr Role kTree = &MessageBreakdown::tree_sessions;
constexpr Role kCenter = &MessageBreakdown::center;
constexpr Role kControl = &MessageBreakdown::control;

struct MsgSetup {  // flood: establishes the per-level tree parent
  static constexpr Role kRole = kTree;
  static std::uint32_t words() { return 1; }
};

struct MsgBoundary {  // flood: the final E_j(v) list
  EdgeList boundary;
  static constexpr Role kRole = kTree;
  std::uint32_t words() const {
    return static_cast<std::uint32_t>(boundary->size() + 1);
  }
};

struct MsgTrialRate {  // flood: per-trial sampling directive
  std::uint64_t trial_size = 0;
  std::uint64_t pool_total = 0;
  bool skip = false;
  static constexpr Role kRole = kTree;
  static std::uint32_t words() { return 3; }
};

struct MsgQuery {  // over a sampled boundary edge
  static constexpr Role kRole = kQueries;
  static std::uint32_t words() { return 1; }
};

struct MsgQueryReply {
  bool alive = true;
  NodeId cluster = kInvalidNode;
  EdgeList boundary;  ///< responder cluster's full incident edge-ID list
  static constexpr Role kRole = kQueries;
  std::uint32_t words() const {
    return static_cast<std::uint32_t>((boundary ? boundary->size() : 0) + 2);
  }
};

struct Found {  // one discovered neighbour cluster
  NodeId cluster = kInvalidNode;
  bool alive = true;
  EdgeId via = kInvalidEdge;
  EdgeList list;
};

struct MsgApply {  // flood: root's dedup'd decisions for the trial
  std::shared_ptr<const std::vector<Found>> entries;
  static constexpr Role kRole = kTree;
  std::uint32_t words() const {
    std::uint32_t w = 1;
    for (const Found& f : *entries)
      w += static_cast<std::uint32_t>(f.list ? f.list->size() + 2 : 2);
    return w;
  }
};

struct MsgCenterFlood {  // flood: the root's p_j coin
  bool is_center = false;
  static constexpr Role kRole = kTree;
  static std::uint32_t words() { return 1; }
};

struct MsgCenterQuery {
  static constexpr Role kRole = kCenter;
  static std::uint32_t words() { return 1; }
};

struct MsgCenterReply {
  bool is_center = false;
  NodeId cluster = kInvalidNode;
  static constexpr Role kRole = kCenter;
  static std::uint32_t words() { return 2; }
};

struct CenterFound {
  NodeId cluster = kInvalidNode;
  EdgeId via = kInvalidEdge;
};

/// Echo: a subtree's concatenated reports — candidate edges (gather),
/// discovered neighbours (collect) or center neighbours (center).
template <typename T>
struct MsgUp {
  std::shared_ptr<std::vector<T>> items;
  static constexpr Role kRole = kTree;
  std::uint32_t words() const {
    return static_cast<std::uint32_t>(items->size() + 1);
  }
};

enum class JoinDecision : std::uint8_t { Stay, Join, Die };

struct MsgJoin {  // flood: Stay / Join(u*, e*) / Die
  JoinDecision decision = JoinDecision::Die;
  NodeId new_cluster = kInvalidNode;
  EdgeId attach_edge = kInvalidEdge;
  static constexpr Role kRole = kTree;
  static std::uint32_t words() { return 3; }
};

struct MsgAttach {  // marks the attach edge as a tree edge on the far side
  static constexpr Role kRole = kControl;
  static std::uint32_t words() { return 1; }
};

struct MsgDeath {  // dying cluster announces over its F_v edges
  EdgeList boundary;
  static constexpr Role kRole = kControl;
  std::uint32_t words() const {
    return static_cast<std::uint32_t>(boundary->size() + 1);
  }
};

// The content fields of every non-empty payload (the empty markers carry
// nothing). Padded structs (MsgTrialRate, MsgQueryReply, Found,
// MsgCenterReply, MsgJoin) list exactly their members, never the padding.
FL_WIRE_FIELDS(MsgBoundary, boundary);
FL_WIRE_FIELDS(MsgTrialRate, trial_size, pool_total, skip);
FL_WIRE_FIELDS(MsgQueryReply, alive, cluster, boundary);
FL_WIRE_FIELDS(Found, cluster, alive, via, list);
FL_WIRE_FIELDS(MsgApply, entries);
FL_WIRE_FIELDS(MsgCenterFlood, is_center);
FL_WIRE_FIELDS(MsgCenterReply, is_center, cluster);
FL_WIRE_FIELDS(CenterFound, cluster, via);
FL_WIRE_FIELDS(MsgUp<EdgeId>, items);
FL_WIRE_FIELDS(MsgUp<Found>, items);
FL_WIRE_FIELDS(MsgUp<CenterFound>, items);
FL_WIRE_FIELDS(MsgJoin, decision, new_cluster, attach_edge);
FL_WIRE_FIELDS(MsgDeath, boundary);

// The sampler's whole message budget rides on these structs: queries and
// replies are the Õ(n^{1+δ+ε}) term, the rest are tree sessions. Payload's
// constructor already keeps every one of them in the inline buffer
// (list-carrying messages ship a shared_ptr head, never the list); the
// pure-control messages must also hit the memcpy relocation fast path.
static_assert(sim::Payload::trivially_relocatable<MsgTrialRate>);
static_assert(sim::Payload::trivially_relocatable<MsgQuery>);
static_assert(sim::Payload::trivially_relocatable<MsgCenterFlood>);
static_assert(sim::Payload::trivially_relocatable<MsgCenterQuery>);
static_assert(sim::Payload::trivially_relocatable<MsgCenterReply>);
static_assert(sim::Payload::trivially_relocatable<MsgJoin>);
static_assert(sim::Payload::trivially_relocatable<MsgAttach>);

// ------------------------------------------------------ helper routines

using util::binomial_draw;

/// Root-side diagnostics for one level this node led.
struct RootLevelRecord {
  unsigned level = 0;
  NodeStatus status = NodeStatus::Neither;
  std::size_t boundary_size = 0;
  std::size_t distinct_neighbors_found = 0;
  std::size_t f_count = 0;
  bool was_center = false;
  bool died = false;
  bool joined = false;
};

// --------------------------------------------------------- the program

/// One physical node. Its cluster's sessions are built from three
/// primitives:
///   * flood(m) — apply m's state update here (accept), then forward m to
///     the tree children. The root builds m and calls flood; a relay calls
///     the same routine from handle(), so each flood type has one
///     forwarding site.
///   * the echo over MsgUp<T> — echo_start opens it with this node's own
///     items, echo_report appends each child's, and the last report
///     (echo_done) sends the concatenation to the parent or, at the root,
///     hands it to that session's root_reduce.
///   * send(edge, m) — the one call of Context::send; it meters m at
///     m.words() and credits m's MessageBreakdown role.
/// Queries, center queries, the attach notice and death announcements are
/// single sends outside the tree.
class SamplerNode final : public sim::NodeProgram {
 public:
  /// `adaptive` selects the phase barrier (the driver derives it from the
  /// run's CONGEST config): false = the fixed
  /// PhaseSpec::start/length timetable, true = event-driven barriers
  /// (advance on Context::network_silent()).
  SamplerNode(NodeId self, std::shared_ptr<const Schedule> schedule,
              const SamplerConfig& cfg, double n0, bool adaptive)
      : self_(self),
        schedule_(std::move(schedule)),
        cfg_(cfg),
        n0_(n0),
        adaptive_(adaptive),
        streams_(cfg.seed) {}

  // -- extraction hooks used by the driver after the run ----------------
  std::vector<EdgeId> spanner_edges() const {
    std::vector<EdgeId> out;
    for (std::size_t s = 0; s < inc_.size(); ++s)
      if (flag_spanner_[s]) out.push_back(inc_[s]);
    return out;
  }
  const std::vector<RootLevelRecord>& root_records() const {
    return root_records_;
  }
  const std::vector<std::uint64_t>& queries_per_level() const {
    return queries_per_level_;
  }
  const MessageBreakdown& breakdown() const { return sent_; }

  /// Record the final level's root status (level k has no JoinFlood).
  void flush_final_records() {
    if (alive_ && is_root_ && record_.level == cfg_.k &&
        (root_records_.empty() || root_records_.back().level != cfg_.k)) {
      finalize_level_record(JoinDecision::Die);
      root_records_.back().died = false;  // level k nodes are "unclustered"
    }
  }

  // -- NodeProgram -------------------------------------------------------
  void on_start(sim::Context& ctx) override {
    const auto edges = ctx.incident_edges();
    inc_.assign(edges.begin(), edges.end());
    std::sort(inc_.begin(), inc_.end());
    const std::size_t deg = inc_.size();
    flag_spanner_.assign(deg, false);
    flag_tree_.assign(deg, false);
    flag_f_edge_.assign(deg, false);
    pool_pos_.assign(deg, kNoSlot);
    pool_.clear();
    pool_.reserve(deg);
    for (std::size_t s = 0; s < deg; ++s) {
      pool_pos_[s] = pool_.size();
      pool_.push_back(s);
    }
    cluster_id_ = self_;
    is_root_ = true;
    alive_ = true;
    queries_per_level_.assign(cfg_.k + 1, 0);
    // Level 0 boundary: all incident edges (a simple graph has no intra).
    boundary_ = std::make_shared<const std::vector<EdgeId>>(inc_);
    rebuild_root_pool();
  }

  void on_round(sim::Context& ctx, sim::InboxView inbox) override {
    // Step 1: react to messages.
    for (const auto& msg : inbox) handle(ctx, msg);
    // Step 2: execute phase-start actions that are due.
    if (adaptive_) {
      // Event-driven barrier: a phase ends on the first *silent* round —
      // nothing delivered, nothing parked by the budget. Every send in
      // this protocol is either a phase-start action or an immediate
      // reaction to a delivery, so a phase's traffic is a chain of
      // consecutive delivery rounds and silence proves the chain (and
      // every earlier phase's) has fully drained. The predicate is a
      // merge-barrier fact, identical at every node, so all nodes consume
      // the same phase in the same round — the timetable's lockstep
      // without its provisioned windows.
      if (ctx.network_silent() && phase_idx_ < schedule_->phases.size()) {
        start_phase(ctx, schedule_->phases[phase_idx_]);
        ++phase_idx_;
        // Reactive-only phases send nothing at start — their work happens
        // in handle() while the *previous* phase's traffic is in flight —
        // so waiting a silent round for each would buy nothing. Consume
        // them together with the phase whose traffic they answer.
        while (phase_idx_ < schedule_->phases.size() &&
               reactive_only(schedule_->phases[phase_idx_].kind)) {
          start_phase(ctx, schedule_->phases[phase_idx_]);
          ++phase_idx_;
        }
      }
      return;
    }
    // Fixed timetable: phases start at their provisioned rounds. The
    // timetable's round 0 is the first on_round (the engine's round 1),
    // and a non-reactive node is stepped every round.
    const std::size_t now = ctx.round() - 1;
    while (phase_idx_ < schedule_->phases.size() &&
           schedule_->phases[phase_idx_].start == now) {
      start_phase(ctx, schedule_->phases[phase_idx_]);
      ++phase_idx_;
    }
  }

  bool done() const override {
    return phase_idx_ >= schedule_->phases.size();
  }

  /// On event-driven barriers every action is a reaction to mail or a
  /// phase start on silence, so an empty, non-silent round is a no-op and
  /// the engine may skip it. The fixed timetable counts every round.
  bool reactive() const override { return adaptive_; }

 private:
  // ------------------------------------------------------- edge slots
  std::size_t slot_of(EdgeId e) const {
    const auto it = std::lower_bound(inc_.begin(), inc_.end(), e);
    if (it == inc_.end() || *it != e) return kNoSlot;
    return static_cast<std::size_t>(it - inc_.begin());
  }

  void pool_remove_slot(std::size_t s) {
    const std::size_t p = pool_pos_[s];
    if (p == kNoSlot) return;
    const std::size_t last = pool_.back();
    pool_[p] = last;
    pool_pos_[last] = p;
    pool_.pop_back();
    pool_pos_[s] = kNoSlot;
  }

  /// Remove every own pool edge that appears in `list` (a cluster's
  /// sorted boundary). Slots are removed in ascending order, which is the
  /// order send_queries' draws against the swap-removed pool depend on.
  void peel_list(const std::vector<EdgeId>& list) {
    if (pool_.empty()) return;
    util::for_each_common(inc_, list, [&](std::size_t s, std::size_t) {
      pool_remove_slot(s);
    });
  }

  std::size_t children_count() const {
    std::size_t deg = 0;
    for (std::size_t s = 0; s < inc_.size(); ++s)
      if (flag_tree_[s]) ++deg;
    if (parent_edge_ != kInvalidEdge) --deg;
    return deg;
  }

  // ---------------------------------------------------- root pool model
  // The root's view of the whole cluster's pool: one live flag per edge of
  // its sorted boundary_, plus the live count that MsgTrialRate floods as
  // pool_total and that makes the level's status Light at zero. Peeling
  // clears the boundary positions a list shares. Lists can overlap: an
  // edge peeled at only one endpoint in an earlier level is reported once
  // by the gather, so it sits in the boundary, and a query over it returns
  // the cluster's own list. A repeat hit must not count twice.
  void rebuild_root_pool() {
    root_live_.clear();
    root_live_count_ = 0;
    if (!is_root_ || boundary_ == nullptr) return;
    root_live_.assign(boundary_->size(), true);
    root_live_count_ = boundary_->size();
  }

  void root_peel(const std::vector<EdgeId>& list) {
    if (root_live_count_ == 0) return;
    FL_ENSURE(root_live_.size() == boundary_->size(),
              "root pool must track the root's boundary");
    util::for_each_common(*boundary_, list, [&](std::size_t i, std::size_t) {
      if (!root_live_[i]) return;
      root_live_[i] = false;
      --root_live_count_;
    });
  }

  // ---------------------------------------------------- the primitives
  template <typename Msg>
  void send(sim::Context& ctx, EdgeId edge, const Msg& m) {
    ctx.send(edge, m, m.words());
    ++(sent_.*Msg::kRole);
  }

  /// `arrival` is the edge m came in on; the root passes none.
  template <typename Msg>
  void flood(sim::Context& ctx, const Msg& m, EdgeId arrival = kInvalidEdge) {
    if (!alive_) return;
    accept(m, arrival);
    for (std::size_t s = 0; s < inc_.size(); ++s)
      if (flag_tree_[s] && inc_[s] != parent_edge_) send(ctx, inc_[s], m);
  }

  template <typename T>
  void echo_start(sim::Context& ctx, std::vector<T> own) {
    echo_ = std::move(own);
    echo_waiting_ = children_count();
    if (echo_waiting_ == 0) echo_done<T>(ctx);
  }

  /// True iff `msg` is a MsgUp<T>. A report for a session this node has
  /// not opened (or already closed) is dropped.
  template <typename T>
  bool echo_report(sim::Context& ctx, sim::MessageView msg) {
    const auto* up = sim::payload_if<MsgUp<T>>(msg);
    if (up == nullptr) return false;
    if (auto* acc = std::get_if<std::vector<T>>(&echo_)) {
      acc->insert(acc->end(), up->items->begin(), up->items->end());
      FL_ENSURE(echo_waiting_ > 0, "unexpected echo report");
      if (--echo_waiting_ == 0) echo_done<T>(ctx);
    }
    return true;
  }

  template <typename T>
  void echo_done(sim::Context& ctx) {
    auto items = std::get<std::vector<T>>(std::move(echo_));
    echo_ = std::monostate{};
    if (is_root_) {
      root_reduce(items);
      return;
    }
    send(ctx, parent_edge_,
         MsgUp<T>{std::make_shared<std::vector<T>>(std::move(items))});
  }

  // ------------------------------------------- flood state updates
  void accept(const MsgSetup&, EdgeId arrival) { parent_edge_ = arrival; }

  void accept(const MsgBoundary& m, EdgeId) {
    boundary_ = m.boundary;
    // Drop own candidates that are not in the cluster's boundary (they are
    // intra-cluster edges discovered by the duplicate count at the root).
    const auto& boundary = *m.boundary;
    for (std::size_t i = 0; i < pool_.size();) {
      const std::size_t s = pool_[i];
      if (!std::binary_search(boundary.begin(), boundary.end(), inc_[s])) {
        pool_remove_slot(s);  // swap-removes; re-examine index i
      } else {
        ++i;
      }
    }
  }

  void accept(const MsgTrialRate& m, EdgeId) { current_rate_ = m; }

  void accept(const MsgApply& m, EdgeId) {
    for (const Found& f : *m.entries) {
      if (f.via != kInvalidEdge) {
        const std::size_t s = slot_of(f.via);
        if (s != kNoSlot) {
          flag_spanner_[s] = true;
          flag_f_edge_[s] = true;
        }
      }
      if (f.list) peel_list(*f.list);
    }
  }

  void accept(const MsgCenterFlood& m, EdgeId) {
    is_center_cluster_ = m.is_center;
  }

  void accept(const MsgJoin& m, EdgeId) {
    switch (m.decision) {
      case JoinDecision::Stay:
        break;
      case JoinDecision::Join:
        cluster_id_ = m.new_cluster;
        is_root_ = false;
        if (slot_of(m.attach_edge) != kNoSlot) attach_to_send_ = m.attach_edge;
        break;
      case JoinDecision::Die:
        dying_ = true;  // effective at DeathAnnounce
        is_root_ = false;
        break;
    }
  }

  // -------------------------------------------- root echo reductions
  /// Gather: edges reported twice are intra-cluster; the once-reported
  /// ones are E_j(v).
  void root_reduce(std::vector<EdgeId>& all) {
    std::sort(all.begin(), all.end());
    auto out = std::make_shared<std::vector<EdgeId>>();
    for (std::size_t i = 0; i < all.size();) {
      std::size_t j = i + 1;
      while (j < all.size() && all[j] == all[i]) ++j;
      if (j - i == 1) out->push_back(all[i]);
      FL_ENSURE(j - i <= 2, "an edge has at most two endpoints in a cluster");
      i = j;
    }
    boundary_ = std::move(out);
    rebuild_root_pool();
  }

  /// Collect: this trial's discoveries become the next MsgApply. F_v
  /// growth is capped at the budget (see sampler.cpp run_trial: Lemma 10's
  /// accounting requires it); blocks skipped by the cap stay unqueried and
  /// unpeeled.
  ///
  /// Canonical order first: the echo concatenates subtree reports in
  /// arrival order, which a bandwidth budget regroups across rounds. The
  /// first-seen-cluster F_v selection below (and its cap) must be a
  /// function of the report *set*, not of the delivery schedule, or a
  /// budgeted run would build a different spanner than the LOCAL run.
  /// (cluster, via) is unique per entry — one query per boundary edge per
  /// trial — so the sort is a total order and fully deterministic.
  void root_reduce(std::vector<Found>& found) {
    std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
      return a.cluster != b.cluster ? a.cluster < b.cluster : a.via < b.via;
    });
    const std::size_t budget = cfg_.budget(n0_, level_);
    auto apply = std::make_shared<std::vector<Found>>();
    for (const Found& f : found) {
      if (known_neighbors_.count(f.cluster)) continue;
      Found decision = f;
      if (f.alive) {
        if (f_entries_.size() >= budget) continue;  // capped: ignore
        known_neighbors_.insert(f.cluster);
        f_entries_.push_back({f.cluster, f.via});
        ++record_.distinct_neighbors_found;
      } else {
        known_neighbors_.insert(f.cluster);
        decision.via = kInvalidEdge;  // dead: peel only, no F_v edge
      }
      if (decision.list) root_peel(*decision.list);
      apply->push_back(std::move(decision));
    }
    pending_apply_ = std::move(apply);
  }

  /// Center: pick the smallest-id center neighbour (deterministic
  /// arbitrary).
  void root_reduce(const std::vector<CenterFound>& found) {
    chosen_center_ = kInvalidNode;
    chosen_attach_ = kInvalidEdge;
    for (const CenterFound& cf : found) {
      if (chosen_center_ == kInvalidNode || cf.cluster < chosen_center_) {
        chosen_center_ = cf.cluster;
        chosen_attach_ = cf.via;
      }
    }
  }

  // ------------------------------------------------------ phase starts
  /// Phases whose start is a no-op: all their work happens reactively in
  /// handle() while the preceding phase's traffic is in flight, so an
  /// event-driven barrier consumes them with that phase instead of
  /// spending a silent round on each.
  static bool reactive_only(PhaseSpec::Kind kind) {
    using K = PhaseSpec::Kind;
    return kind == K::QueryRespond || kind == K::CenterRespond;
  }

  void start_phase(sim::Context& ctx, const PhaseSpec& spec) {
    using K = PhaseSpec::Kind;
    if (spec.kind == K::FloodSetup) begin_level(spec.level);
    if (!alive_) return;
    switch (spec.kind) {
      case K::FloodSetup:
        if (is_root_) flood(ctx, MsgSetup{});
        break;
      case K::GatherEcho: {
        std::vector<EdgeId> own;
        own.reserve(pool_.size());
        for (const std::size_t s : pool_) own.push_back(inc_[s]);
        echo_start(ctx, std::move(own));
        break;
      }
      case K::FloodBoundary:
        if (!is_root_) break;
        record_.boundary_size = boundary_->size();
        flood(ctx, MsgBoundary{boundary_});
        break;
      case K::TrialRateFlood:
        if (is_root_) flood(ctx, root_trial_rate());
        break;
      case K::QuerySend:
        send_queries(ctx, static_cast<std::uint64_t>(spec.trial));
        break;
      case K::TrialCollectEcho:
        echo_start(ctx, std::exchange(found_buffer_, {}));
        break;
      case K::TrialApplyFlood:
        if (is_root_ && pending_apply_)
          flood(ctx, MsgApply{std::exchange(pending_apply_, nullptr)});
        break;
      case K::CenterFlood: {
        if (!is_root_) break;
        auto coin = streams_.trial_stream(self_, level_, kCenterCoinLabel);
        record_.was_center = coin.bernoulli(cfg_.center_prob(n0_, level_));
        flood(ctx, MsgCenterFlood{record_.was_center});
        break;
      }
      case K::CenterQuery:
        for (std::size_t s = 0; s < inc_.size(); ++s)
          if (flag_f_edge_[s]) send(ctx, inc_[s], MsgCenterQuery{});
        break;
      case K::CenterCollectEcho:
        echo_start(ctx, std::exchange(center_buffer_, {}));
        break;
      case K::JoinFlood:
        if (is_root_) flood(ctx, root_join());
        break;
      case K::AttachNotify:
        send_attach(ctx);
        break;
      case K::DeathAnnounce:
        announce_death(ctx);
        break;
      case K::QueryRespond:
      case K::CenterRespond:
        break;  // reactive only
    }
  }

  /// FloodSetup's local part, run by every node (alive and dead alike keep
  /// answering queries): forget the previous level's tree parent and F_v
  /// edges; a live root also resets its per-level bookkeeping.
  void begin_level(unsigned level) {
    level_ = level;
    parent_edge_ = kInvalidEdge;
    std::fill(flag_f_edge_.begin(), flag_f_edge_.end(), false);
    if (!alive_ || !is_root_) return;
    known_neighbors_.clear();
    f_entries_.clear();
    record_ = RootLevelRecord{};
    record_.level = level_;
    chosen_center_ = kInvalidNode;
    chosen_attach_ = kInvalidEdge;
    is_center_cluster_ = false;
  }

  /// One trial's QUERY sends: a binomial share of the cluster's trial
  /// size, proportional to this member's part of the cluster's pool.
  void send_queries(sim::Context& ctx, std::uint64_t trial) {
    if (current_rate_.skip || current_rate_.pool_total == 0 || pool_.empty())
      return;
    auto rng = streams_.trial_stream(self_, level_, trial);
    const double share = static_cast<double>(pool_.size()) /
                         static_cast<double>(current_rate_.pool_total);
    const std::uint64_t count =
        binomial_draw(current_rate_.trial_size, share, rng);
    auto query = [&](std::size_t s) {
      send(ctx, inc_[s], MsgQuery{});
      ++queries_per_level_[level_];
    };
    if (count >= kExhaustiveFactor * pool_.size()) {
      for (const std::size_t s : pool_) query(s);
      return;
    }
    // Draw with replacement against the frozen pool; dedupe the sends.
    query_mark_.resize(inc_.size(), 0);
    ++query_epoch_;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::size_t s = pool_[rng.index(pool_.size())];
      if (query_mark_[s] == query_epoch_) continue;
      query_mark_[s] = query_epoch_;
      query(s);
    }
  }

  MsgTrialRate root_trial_rate() const {
    const bool skip = root_live_count_ == 0 ||
                      f_entries_.size() >= cfg_.budget(n0_, level_);
    return {cfg_.trial_size(n0_, level_), root_live_count_, skip};
  }

  MsgJoin root_join() {
    MsgJoin join;
    if (is_center_cluster_) {
      join.decision = JoinDecision::Stay;
    } else if (chosen_center_ != kInvalidNode) {
      join = {JoinDecision::Join, chosen_center_, chosen_attach_};
    } else {
      join.decision = JoinDecision::Die;
    }
    finalize_level_record(join.decision);
    return join;
  }

  void finalize_level_record(JoinDecision decision) {
    const std::size_t budget = cfg_.budget(n0_, level_);
    if (root_live_count_ == 0)
      record_.status = NodeStatus::Light;
    else if (f_entries_.size() >= budget)
      record_.status = NodeStatus::Heavy;
    else
      record_.status = NodeStatus::Neither;
    record_.f_count = f_entries_.size();
    record_.died = decision == JoinDecision::Die;
    record_.joined = decision == JoinDecision::Join;
    root_records_.push_back(record_);
  }

  void send_attach(sim::Context& ctx) {
    if (attach_to_send_ == kInvalidEdge) return;
    const std::size_t s = slot_of(attach_to_send_);
    FL_ENSURE(s != kNoSlot, "attach edge must be incident");
    flag_tree_[s] = true;
    send(ctx, attach_to_send_, MsgAttach{});
    attach_to_send_ = kInvalidEdge;
  }

  void announce_death(sim::Context& ctx) {
    if (!dying_) return;
    dying_ = false;
    alive_ = false;
    // Light whp => F_v covers every neighbour; announce over those edges.
    for (std::size_t s = 0; s < inc_.size(); ++s)
      if (flag_f_edge_[s]) send(ctx, inc_[s], MsgDeath{boundary_});
  }

  // ------------------------------------------------------- msg handler
  void handle(sim::Context& ctx, sim::MessageView msg) {
    if (sim::payload_if<MsgQuery>(msg) != nullptr) {
      send(ctx, msg.edge(),
           MsgQueryReply{alive_ && !dying_, cluster_id_, boundary_});
      return;
    }
    if (const auto* r = sim::payload_if<MsgQueryReply>(msg)) {
      found_buffer_.push_back({r->cluster, r->alive, msg.edge(), r->boundary});
      return;
    }
    if (sim::payload_if<MsgCenterQuery>(msg) != nullptr) {
      send(ctx, msg.edge(), MsgCenterReply{is_center_cluster_, cluster_id_});
      return;
    }
    if (const auto* r = sim::payload_if<MsgCenterReply>(msg)) {
      if (r->is_center) center_buffer_.push_back({r->cluster, msg.edge()});
      return;
    }
    if (sim::payload_if<MsgAttach>(msg) != nullptr) {
      const std::size_t s = slot_of(msg.edge());
      FL_ENSURE(s != kNoSlot, "attach over non-incident edge");
      flag_tree_[s] = true;
      return;
    }
    if (const auto* d = sim::payload_if<MsgDeath>(msg)) {
      if (alive_ && d->boundary) peel_list(*d->boundary);
      return;
    }
    if (relay<MsgSetup>(ctx, msg) || relay<MsgBoundary>(ctx, msg) ||
        relay<MsgTrialRate>(ctx, msg) || relay<MsgApply>(ctx, msg) ||
        relay<MsgCenterFlood>(ctx, msg) || relay<MsgJoin>(ctx, msg) ||
        echo_report<EdgeId>(ctx, msg) || echo_report<Found>(ctx, msg) ||
        echo_report<CenterFound>(ctx, msg))
      return;
    FL_ENSURE(false, "unknown message payload");
  }

  /// True iff `msg` is a Msg, which a relay hands to the flood routine.
  template <typename Msg>
  bool relay(sim::Context& ctx, sim::MessageView msg) {
    const auto* m = sim::payload_if<Msg>(msg);
    if (m != nullptr) flood(ctx, *m, msg.edge());
    return m != nullptr;
  }

  // ----------------------------------------------------------- members
  NodeId self_;
  std::shared_ptr<const Schedule> schedule_;
  SamplerConfig cfg_;
  double n0_;
  bool adaptive_ = false;  ///< event-driven barriers vs fixed timetable
  util::StreamFactory streams_;

  std::size_t phase_idx_ = 0;
  unsigned level_ = 0;

  // cluster membership
  bool alive_ = true;
  bool dying_ = false;
  bool is_root_ = true;
  bool is_center_cluster_ = false;
  NodeId cluster_id_ = kInvalidNode;
  EdgeId parent_edge_ = kInvalidEdge;
  EdgeId attach_to_send_ = kInvalidEdge;

  // incident-edge slots
  std::vector<EdgeId> inc_;  // sorted
  std::vector<bool> flag_spanner_;
  std::vector<bool> flag_tree_;
  std::vector<bool> flag_f_edge_;
  std::vector<std::size_t> pool_pos_;
  std::vector<std::size_t> pool_;
  std::vector<unsigned> query_mark_;
  unsigned query_epoch_ = 0;

  // level-shared knowledge
  EdgeList boundary_;
  MsgTrialRate current_rate_;

  // the open echo session: this subtree's items so far (monostate: none)
  std::variant<std::monostate, std::vector<EdgeId>, std::vector<Found>,
               std::vector<CenterFound>>
      echo_;
  std::size_t echo_waiting_ = 0;

  // trial buffers
  std::vector<Found> found_buffer_;
  std::vector<CenterFound> center_buffer_;
  std::shared_ptr<const std::vector<Found>> pending_apply_;

  // root bookkeeping
  std::vector<bool> root_live_;  ///< over boundary_; see rebuild_root_pool
  std::size_t root_live_count_ = 0;
  std::unordered_set<NodeId> known_neighbors_;
  std::vector<std::pair<NodeId, EdgeId>> f_entries_;
  NodeId chosen_center_ = kInvalidNode;
  EdgeId chosen_attach_ = kInvalidEdge;
  RootLevelRecord record_;
  std::vector<RootLevelRecord> root_records_;
  std::vector<std::uint64_t> queries_per_level_;
  MessageBreakdown sent_;
};

}  // namespace

// -------------------------------------------------------------- Schedule

Schedule Schedule::build(const SamplerConfig& cfg) {
  Schedule sched;
  std::size_t round = 0;
  auto push = [&](PhaseSpec::Kind kind, unsigned level, int trial,
                  std::size_t len) {
    sched.phases.push_back(PhaseSpec{kind, level, trial, round, len});
    round += len;
  };
  for (unsigned j = 0; j <= cfg.k; ++j) {
    const auto w = static_cast<std::size_t>(SamplerConfig::pow3(j)) - 1;
    using K = PhaseSpec::Kind;
    push(K::FloodSetup, j, -1, w);
    push(K::GatherEcho, j, -1, w);
    push(K::FloodBoundary, j, -1, w);
    for (unsigned t = 0; t < cfg.trials_per_level(); ++t) {
      push(K::TrialRateFlood, j, static_cast<int>(t), w);
      push(K::QuerySend, j, static_cast<int>(t), 1);
      push(K::QueryRespond, j, static_cast<int>(t), 1);
      push(K::TrialCollectEcho, j, static_cast<int>(t), w);
      push(K::TrialApplyFlood, j, static_cast<int>(t), w);
    }
    if (j < cfg.k) {
      push(K::CenterFlood, j, -1, w);
      push(K::CenterQuery, j, -1, 1);
      push(K::CenterRespond, j, -1, 1);
      push(K::CenterCollectEcho, j, -1, w);
      push(K::JoinFlood, j, -1, w);
      push(K::AttachNotify, j, -1, 1);
      push(K::DeathAnnounce, j, -1, 1);
    }
  }
  sched.total_rounds = round;
  return sched;
}

// ---------------------------------------------------------------- driver

DistributedSpannerRun run_distributed_sampler(const graph::Graph& g,
                                              const SamplerConfig& cfg) {
  cfg.validate(g.num_nodes());
  // Only the centralized build_spanner implements the no-peeling ablation;
  // the protocol always peels, so a run that asked otherwise would silently
  // measure something else.
  FL_REQUIRE(cfg.peel_parallel_edges,
             "SamplerConfig::peel_parallel_edges = false is not implemented "
             "by the distributed sampler (build_spanner only)");
  const auto schedule = std::make_shared<const Schedule>(Schedule::build(cfg));
  const double n0 = g.num_nodes();

  sim::Network net(g, cfg.seed);
  net.set_congest(cfg.congest);
  // The budget picks the barrier, so the sampler is correct at any budget
  // while plain LOCAL runs keep the paper's timetable (and their golden
  // round counts) byte-stable.
  const bool adaptive = cfg.congest.enforced();
  net.install([&](NodeId v) {
    return std::make_unique<SamplerNode>(v, schedule, cfg, n0, adaptive);
  });

  DistributedSpannerRun run;
  run.stretch_bound = cfg.stretch_bound();
  // Principled stall caps for the event-driven drain (run_until_drained
  // leaves delivery rounds uncapped and meters only *silent* rounds):
  //   * adaptive — every silent round consumes at least one phase, so the
  //     run stalls at most once per phase;
  //   * fixed timetable — logical rounds advance one per round and every
  //     silent round is a timetable round, so the timetable length bounds
  //     them.
  // The +4 covers run start/finish framing (the on_start round, the final
  // quiesce probe).
  const std::size_t stall_cap = adaptive ? schedule->phases.size() + 4
                                         : schedule->total_rounds + 4;
  {
    // Named protocol span on the engine track (no-op when tracing is off).
    const obs::ProtocolScope span(net.tracer(), "distributed_sampler");
    run.stats = net.run_until_drained(stall_cap);
  }
  FL_REQUIRE(run.stats.terminated,
             "distributed sampler did not terminate within its schedule");
  run.metrics = net.metrics();

  // Extract the spanner (union of per-node marks) and per-level records.
  std::vector<bool> in_spanner(g.num_edges(), false);
  run.levels.assign(cfg.k + 1, LevelTrace{});
  for (unsigned j = 0; j <= cfg.k; ++j) run.levels[j].level = j;

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto& prog = net.program_as<SamplerNode>(v);
    prog.flush_final_records();
    for (const EdgeId e : prog.spanner_edges()) in_spanner[e] = true;
    for (const auto& rec : prog.root_records()) {
      LevelTrace& lt = run.levels[rec.level];
      ++lt.virtual_nodes;
      lt.virtual_edges += rec.boundary_size;  // halved below
      switch (rec.status) {
        case NodeStatus::Light: ++lt.light; break;
        case NodeStatus::Heavy: ++lt.heavy; break;
        case NodeStatus::Neither: ++lt.neither; break;
      }
      if (rec.was_center) ++lt.centers;
      if (rec.joined) ++lt.clustered;
      if (rec.died) ++lt.unclustered;
      lt.spanner_added += rec.f_count;
    }
    const auto& q = prog.queries_per_level();
    for (unsigned j = 0; j <= cfg.k; ++j) run.levels[j].query_edges += q[j];
    const auto& bd = prog.breakdown();
    run.breakdown.queries += bd.queries;
    run.breakdown.tree_sessions += bd.tree_sessions;
    run.breakdown.center += bd.center;
    run.breakdown.control += bd.control;
  }
  for (auto& lt : run.levels) lt.virtual_edges /= 2;
  run.levels.back().unclustered = run.levels.back().virtual_nodes;

  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (in_spanner[e]) run.edges.push_back(e);
  return run;
}

}  // namespace fl::core
