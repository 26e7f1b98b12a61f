// The merge barrier: how one round's sends become the next round's
// inboxes. The storage it works on (the double-buffered arena, the
// CONGEST calendars and per-edge budget state) is documented on Network's
// private delivery members (network.hpp).
#include "sim/network.hpp"

#include <limits>
#include <string>

#include "util/assert.hpp"

namespace fl::sim {

using graph::NodeId;

namespace {

// Per-directed-edge state index: 2e + (to > from).
std::size_t directed_edge(const MessageHeader& h) {
  return 2 * static_cast<std::size_t>(h.edge) + (h.to > h.from ? 1 : 0);
}

}  // namespace

void Network::plan_delivery() {
  chunk_weight_.assign(shards_.size(), 0);
  if (congest_.enforced()) {
    // Budget state is per *directed* edge (index 2e + direction);
    // calendars and admitted buffers are per destination shard. None of
    // it exists in LOCAL mode, which keeps the unbudgeted engine
    // untouched.
    const std::size_t directed =
        2 * static_cast<std::size_t>(graph_->num_edges());
    congest_edges_.assign(directed, EdgeBudgetState{});
    congest_chunks_.resize(shards_.size());
    congest_counts_.assign(graph_->num_nodes(), 0);
    if (trace_) congest_occupancy_.assign(directed, 0);
  }
}

InboxView Network::inbox_span(NodeId v) const {
  FL_REQUIRE(v < graph_->num_nodes(), "node id out of range");
  return arena_.range(arena_offsets_[v], arena_offsets_[v + 1]);
}

std::uint64_t Network::debug_plane_allocations() const {
  std::uint64_t total = arena_.allocations() + arena_next_.allocations();
  for (const auto& chunk : congest_chunks_)
    total += chunk.slab.allocations() + chunk.admitted.allocations();
  for (const auto& lane : lanes_) total += lane.outbox.allocations();
  return total;
}

void Network::debug_mutate_carry(unsigned chunk) {
  FL_REQUIRE(chunk < congest_chunks_.size(), "carry chunk out of range");
  if (check_) check_->touch_carry(chunk, "carry queue");
  // Harmless when legally reached: the parked messages are untouched.
  auto& slab = congest_chunks_[chunk].slab;
  slab.reserve(slab.size());
}

void Network::CongestChunk::file(std::uint64_t round, std::uint64_t due,
                                 const MessageHeader& h, Payload&& p) {
  if (due - round >= ring.size()) {
    // Re-home every bucket into a ring that spans the new horizon. A
    // bucket holds exactly one due round (all pending rounds lie within
    // one ring length of `round`), read off its head.
    std::size_t size = ring.size();
    while (due - round >= size) size *= 2;
    std::vector<Bucket> grown(size);
    for (const Bucket& b : ring)
      if (b.head != kNil) grown[due_round[b.head] & (size - 1)] = b;
    ring.swap(grown);
  }
  std::uint32_t slot = free_head;
  if (slot != kNil) {
    free_head = next[slot];
    slab.header(slot) = h;
    slab.payload(slot) = std::move(p);
    due_round[slot] = due;
    next[slot] = kNil;
  } else {
    FL_REQUIRE(slab.size() < kNil, "calendar slab overflows 32-bit slots");
    slot = static_cast<std::uint32_t>(slab.size());
    slab.push_back(h, std::move(p));
    due_round.push_back(due);
    next.push_back(kNil);
  }
  Bucket& b = ring[due & (ring.size() - 1)];
  if (b.head == kNil) {
    b.head = slot;
  } else {
    next[b.tail] = slot;
  }
  b.tail = slot;
  ++parked;
}

void Network::CongestChunk::recount(std::uint32_t& on_edge,
                                    std::uint32_t count) {
  if (on_edge > 0) --edges_at_occupancy[on_edge];
  if (count > 0) {
    if (count >= edges_at_occupancy.size())
      edges_at_occupancy.resize(count + 1, 0);
    ++edges_at_occupancy[count];
  }
  on_edge = count;
  while (!edges_at_occupancy.empty() && edges_at_occupancy.back() == 0)
    edges_at_occupancy.pop_back();
}

std::uint64_t Network::merge_barrier() {
  // Phase 2 — merge lanes: this round's sends become next round's inboxes.
  std::uint64_t count = 0;
  for (const auto& lane : lanes_) count += lane.outbox.size();
  {
    const obs::SpanScope span(trace_.get(), obs::SpanKind::MergePhase, 0,
                              round_);
    merge_lanes(count);
  }
  // Phase 2b — congest admission: the merged arena is the canonical
  // (thread-count-invariant) candidate order, so metering it — rather
  // than the per-lane outboxes — keeps budgeted delivery bit-identical
  // across lane counts for free. `count` becomes what was *delivered*.
  if (congest_.enforced()) {
    const obs::SpanScope span(trace_.get(), obs::SpanKind::AdmitPhase, 0,
                              round_);
    count = congest_admit();
  }
  return count;
}

void Network::merge_lanes(std::uint64_t total) {
  // Deterministic shard merge into the flat arena, in two steps that touch
  // each message exactly once (PR 2 measured an extra message pass at
  // ~25% end-to-end, so the merge must stay offsets-arithmetic + one
  // relocation):
  //
  //   1. Offsets: walk destinations in order; within a destination, give
  //      lane s the slot range after lanes < s (counts were kept by
  //      enqueue). The same walk writes each lane's private scatter
  //      cursors, zeroes its counts for the next round, and leaves
  //      arena_offsets_ as the final CSR table directly. The walk runs
  //      chunk-parallel over the node shards: each chunk totals its
  //      counts, a sequential O(S) exclusive prefix over the chunk totals
  //      seeds each chunk's base offset, and a second chunked pass lays
  //      out offsets + cursors from those bases — the same arithmetic as
  //      one ascending walk, which is what a single chunk performs.
  //   2. Relocation: every lane scatters its own outbox in send order.
  //      Cursor ranges are disjoint per (lane, destination), so lanes
  //      relocate concurrently with no shared writes.
  //
  // Send order within a lane is sequential order within its contiguous
  // shard, and step 1 ordered lanes ascending within each destination, so
  // per-destination arrival order is bit-identical to the sequential run
  // — the counting sort is stable across the shard concatenation.
  // arena_offsets_ is deliberately 32-bit (half the randomly accessed side
  // array); a round with >= 2^32 - 1 messages would silently wrap it, so
  // the large-n path must die here with a message naming the cure.
  FL_REQUIRE(total < std::numeric_limits<std::uint32_t>::max(),
             "round message count overflows the 32-bit arena offsets "
             "(>= 2^32 - 1 messages in one round); split the round or "
             "promote arena_offsets_ to uint64_t");
  const NodeId n = graph_->num_nodes();
  // Chunk c owns destination range shards_[c]; it only touches
  // dest_counts/cursors entries inside that range (across all lanes),
  // so the two chunked passes share no writable state between chunks.
  pool_->run([&](unsigned c) {
    LaneScope scope(check_.get(), c, EnginePhase::Merge);
    const ShardRange range = shards_[c];
    std::uint64_t w = 0;
    for (NodeId v = range.begin; v < range.end; ++v)
      for (const auto& lane : lanes_) w += lane.dest_counts[v];
    chunk_weight_[c] = w;
  });
  std::uint64_t base = 0;
  for (auto& w : chunk_weight_) {
    const std::uint64_t c = w;
    w = base;
    base += c;
  }
  pool_->run([&](unsigned c) {
    LaneScope scope(check_.get(), c, EnginePhase::Merge);
    const ShardRange range = shards_[c];
    auto sum = static_cast<std::uint32_t>(chunk_weight_[c]);
    for (NodeId v = range.begin; v < range.end; ++v) {
      if (check_) check_->touch_merge_dest(v, "per-destination offsets");
      arena_offsets_[v] = sum;
      for (auto& lane : lanes_) {
        const std::uint32_t cnt = lane.dest_counts[v];
        lane.dest_counts[v] = 0;
        lane.cursors[v] = sum;
        sum += cnt;
      }
    }
  });
  arena_offsets_[n] = static_cast<std::uint32_t>(total);
  arena_.resize(static_cast<std::size_t>(total));
  auto scatter = [&](unsigned s) {
    LaneScope scope(check_.get(), s, EnginePhase::Merge);
    const obs::SpanScope span(trace_.get(), obs::SpanKind::MergeLane, s,
                              round_);
    // The scatter writes arena slots for *foreign* destinations — that is
    // the merge contract (cursor ranges are disjoint per lane) — but it
    // may only drain its own outbox and cursors. Headers relocate with a
    // plain 16-byte assignment; payloads move once, here.
    if (check_) check_->touch_lane(s, EnginePhase::Merge,
                                           "outbox scatter");
    SendLane& lane = lanes_[s];
    for (std::size_t i = 0; i < lane.outbox.size(); ++i) {
      const MessageHeader& h = lane.outbox.header(i);
      const std::uint32_t slot = lane.cursors[h.to]++;
      arena_.header(slot) = h;
      arena_.payload(slot) = std::move(lane.outbox.payload(i));
    }
    lane.outbox.clear();
  };
  pool_->run(scatter);
  for (auto& lane : lanes_) {
    metrics_.words_total += lane.words;
    lane.words = 0;
    if (lane.max_words > metrics_.max_message_words)
      metrics_.max_message_words = lane.max_words;  // lane max is monotone
  }
}

std::uint64_t Network::congest_admit() {
  // The CONGEST admission pass (congest.hpp). Per directed edge the rule
  // is a B-words-per-round FIFO channel that banks unused capacity while
  // blocked, so a K-word message crosses in ceil(K / B) rounds. That rule
  // has a closed form: with the edge's tail (its last queued message)
  // admitted in round a with `leftover` capacity to spare, a fresh
  // w-word message reaching admission in round r starts from
  //
  //   (start, cap) = a >= r ? (a, leftover) : (r, B)
  //
  // (a FIFO waits for its tail; capacity left over in a round is usable
  // only in that round, since nothing was blocked to bank it), and is
  // admitted in round start + k with k = 0 if cap >= w, else
  // k = ceil((w - cap) / B), leaving cap + k·B - w. So each message is
  // decided once, on arrival: admitted now, or filed in the chunk's
  // calendar under its admission round, to be popped exactly then.
  //
  // Node v's inbox this round is its popped messages in arrival order
  // (they reached admission in earlier rounds) followed by its fresh
  // admitted segment in arena order; both orders are bit-identical across
  // thread counts, so admission is too. Three steps mirror the offsets
  // pass: decide (chunk-parallel, all state destination-owned), prefix
  // chunk totals (sequential O(S)), relocate into a fresh arena + rewrite
  // offsets (chunk-parallel).
  const std::uint64_t budget = congest_.words_per_edge_per_round;
  const std::uint64_t round = round_;
  auto decide = [&](unsigned c) {
    LaneScope scope(check_.get(), c, EnginePhase::Admit);
    const obs::SpanScope span(trace_.get(), obs::SpanKind::AdmitLane, c,
                              round_);
    const ShardRange range = shards_[c];
    CongestChunk& chunk = congest_chunks_[c];
    if (check_) check_->touch_carry(c, "carry queue");
    chunk.admitted.clear();
    // Pop this round's bucket and group it by destination with a stable
    // counting pass: the bucket is in filing order, so each destination's
    // messages stay in arrival order.
    chunk.popped.clear();
    CongestChunk::Bucket& bucket =
        chunk.ring[round & (chunk.ring.size() - 1)];
    if (bucket.head != CongestChunk::kNil) {
      for (NodeId v = range.begin; v < range.end; ++v) congest_counts_[v] = 0;
      std::size_t count = 0;
      for (std::uint32_t s = bucket.head; s != CongestChunk::kNil;
           s = chunk.next[s]) {
        // A filed message is popped in exactly its admission round:
        // nothing overdue, nothing aliased from another lap of the ring.
        FL_ENSURE(chunk.due_round[s] == round,
                  "calendar slot due in round " +
                      std::to_string(chunk.due_round[s]) +
                      " popped in round " + std::to_string(round) +
                      " — admission-pass engine bug");
        ++congest_counts_[chunk.slab.header(s).to];
        ++count;
      }
      std::uint32_t sum = 0;
      for (NodeId v = range.begin; v < range.end; ++v) {
        const std::uint32_t cnt = congest_counts_[v];
        congest_counts_[v] = sum;
        sum += cnt;
      }
      chunk.popped.resize(count);
      for (std::uint32_t s = bucket.head; s != CongestChunk::kNil;
           s = chunk.next[s])
        chunk.popped[congest_counts_[chunk.slab.header(s).to]++] = s;
      bucket = CongestChunk::Bucket{};
      chunk.parked -= count;
    }
    // congest_counts_[v] is now the end of v's popped run; it becomes v's
    // admitted count below.
    std::size_t cursor = 0;
    for (NodeId v = range.begin; v < range.end; ++v) {
      if (check_) check_->touch_admit_dest(v, "per-edge budget tally");
      const std::size_t before = chunk.admitted.size();
      if (!chunk.popped.empty()) {
        for (const std::size_t end = congest_counts_[v]; cursor < end;
             ++cursor) {
          const std::uint32_t s = chunk.popped[cursor];
          const MessageHeader& h = chunk.slab.header(s);
          if (trace_) {
            std::uint32_t& on_edge = congest_occupancy_[directed_edge(h)];
            chunk.recount(on_edge, on_edge - 1);
          }
          chunk.admitted.push_back(h, std::move(chunk.slab.payload(s)));
          chunk.release(s);
        }
      }
      for (std::uint32_t i = arena_offsets_[v]; i < arena_offsets_[v + 1];
           ++i) {
        const MessageHeader& h = arena_.header(i);
        const std::size_t key = directed_edge(h);
        // A directed edge delivers to exactly one node, so its budget
        // state belongs to the destination's chunk — the property that
        // lets the admission pass parallelize with no shared writes.
        EdgeBudgetState& st = congest_edges_[key];
        const std::uint64_t w = h.size_hint_words;
        std::uint64_t due = round;
        std::uint64_t cap = budget;
        if (st.tail_end > round) {
          due = st.tail_end - 1;
          cap = st.leftover;
        }
        if (cap >= w) {
          st.leftover = cap - w;
        } else {
          const std::uint64_t k = (w - cap - 1) / budget + 1;
          // The banking bound: past its tail's admission round, a message
          // waits at most the rounds its own words need at B per round.
          FL_ENSURE(k <= (w - 1) / budget + 1,
                    "admission delay exceeds the banking bound — "
                    "admission-pass engine bug");
          due += k;
          st.leftover = k * budget - (w - cap);
        }
        st.tail_end = due + 1;
        if (due == round) {
          chunk.admitted.push_back(h, std::move(arena_.payload(i)));
          continue;
        }
        if (check_) check_->touch_carry(c, "carry queue");
        if (trace_) {
          std::uint32_t& on_edge = congest_occupancy_[key];
          chunk.recount(on_edge, on_edge + 1);
        }
        chunk.file(round, due, h, std::move(arena_.payload(i)));
      }
      congest_counts_[v] =
          static_cast<std::uint32_t>(chunk.admitted.size() - before);
    }
    chunk_weight_[c] = chunk.admitted.size();
  };
  pool_->run(decide);
  std::uint64_t admitted_total = 0;
  carry_total_ = 0;
  for (unsigned c = 0; c < congest_chunks_.size(); ++c) {
    carry_total_ += congest_chunks_[c].parked;
    const std::uint64_t w = chunk_weight_[c];
    chunk_weight_[c] = admitted_total;  // becomes the chunk's arena base
    admitted_total += w;
  }
  // A message parked after this round was deferred by it: the per-round
  // deferral count is the parked count.
  metrics_.deferrals_total += carry_total_;
  if (carry_total_ > metrics_.carry_peak)
    metrics_.carry_peak = carry_total_;
  if (trace_ && carry_total_ > 0) {
    // Per-directed-edge carry occupancy, from the chunks' in-place
    // tallies; adds are order-independent.
    for (const auto& chunk : congest_chunks_)
      for (std::size_t k = 1; k < chunk.edges_at_occupancy.size(); ++k)
        if (chunk.edges_at_occupancy[k] > 0)
          trace_->edge_carry_hist().add(k, chunk.edges_at_occupancy[k]);
  }
  FL_REQUIRE(admitted_total < std::numeric_limits<std::uint32_t>::max(),
             "admitted message count overflows the 32-bit arena offsets "
             "(>= 2^32 - 1 messages admitted in one round); split the round "
             "or promote arena_offsets_ to uint64_t");
  arena_next_.resize(static_cast<std::size_t>(admitted_total));
  auto relocate = [&](unsigned c) {
    LaneScope scope(check_.get(), c, EnginePhase::Admit);
    const obs::SpanScope span(trace_.get(), obs::SpanKind::AdmitLane, c,
                              round_);
    const ShardRange range = shards_[c];
    CongestChunk& chunk = congest_chunks_[c];
    auto base = static_cast<std::uint32_t>(chunk_weight_[c]);
    for (std::size_t i = 0; i < chunk.admitted.size(); ++i) {
      arena_next_.header(base + i) = chunk.admitted.header(i);
      arena_next_.payload(base + i) = std::move(chunk.admitted.payload(i));
    }
    for (NodeId v = range.begin; v < range.end; ++v) {
      if (check_) check_->touch_admit_dest(v, "admitted offsets");
      arena_offsets_[v] = base;
      base += congest_counts_[v];
    }
  };
  pool_->run(relocate);
  arena_offsets_[graph_->num_nodes()] =
      static_cast<std::uint32_t>(admitted_total);
  arena_.swap(arena_next_);
  return admitted_total;
}

}  // namespace fl::sim
