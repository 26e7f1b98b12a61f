// Messages exchanged over the simulated LOCAL network — stored as a
// structure of arrays.
//
// The LOCAL model places no bound on message size, so payloads are
// type-erased: each protocol defines its own payload structs and the
// simulator only meters *counts* (the paper's message complexity is a
// count). `size_hint_words` is the protocol's self-reported logical size
// (clamped to >= 1 at enqueue — every message costs at least one word),
// and CONGEST-style comparisons are *enforced*, not just possible: under
// a finite sim::CongestConfig budget the merge barrier meters these hints
// against a per-directed-edge words-per-round limit, deferring (or, in
// Strict mode, rejecting) the overflow — see sim/congest.hpp.
//
// Plane layout. A message is two records in two parallel arrays:
//
//   * MessageHeader — the 16-byte id plane (edge / from / to /
//     size_hint_words). Every engine pass that routes or meters messages
//     (merge offsets walk, counting-sort relocation, quiescence
//     accounting, the congest_admit budget pass) reads *only* this plane,
//     so those passes drag 16 bytes per message through memory, not 48.
//   * Payload (payload.hpp) — the 32-byte value plane, a move-only
//     small-buffer container; it is touched exactly twice per message
//     (relocated at the merge, read by the receiving program).
//
// MessagePlanes owns one pair of such arrays (the delivery arena, each
// lane's outbox, the congest carry queues are all MessagePlanes);
// MessageView is the zipped per-message view handed to node programs, and
// InboxView is the contiguous zipped range a program iterates. Programs
// never see the split: `for (const auto& m : inbox)` with `m.edge()` /
// `payload_as<T>(m)` reads exactly like the old array-of-structs API.
//
// Payload's constructor accepts only types that fit its inline buffer, so
// payload growth is a compile error at the send site rather than a silent
// throughput regression. Hot-path protocols also static_assert
// Payload::trivially_relocatable on their structs to stay on the memcpy
// relocation path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/ids.hpp"
#include "sim/payload.hpp"

namespace fl::sim {

/// The id plane of one message. Trivially copyable by design: the merge
/// scatter and the admission relocate move headers with plain assignment
/// (a 16-byte copy), and header-only passes never fault in payload cache
/// lines.
struct MessageHeader {
  graph::EdgeId edge = graph::kInvalidEdge;  ///< physical edge travelled
  graph::NodeId from = graph::kInvalidNode;  ///< filled in by the network
  graph::NodeId to = graph::kInvalidNode;    ///< filled in by the network
  std::uint32_t size_hint_words = 1;         ///< logical size (words)
};
// The header plane's geometry is asserted exactly — if a field grows, the
// assert fires instead of every header-only pass silently paying for
// padding. Together with sizeof(Payload) == 32 (payload.hpp) a message
// still occupies the 48 bytes the old array-of-structs layout pinned.
static_assert(sizeof(MessageHeader) == 16,
              "MessageHeader must stay exactly 16 bytes");
static_assert(std::is_trivially_copyable_v<MessageHeader>,
              "header-plane passes rely on plain-assignment relocation");

/// Zipped read-only view of one message: a header pointer and a payload
/// pointer into the two planes. Two words, passed by value.
///
/// Lifetime rule: a MessageView (and any reference obtained through it,
/// payload_as<T> included) is valid only until the planes it points into
/// mutate — for inbox views, until on_round returns and the next merge
/// rebuilds the arena. Programs that need a payload beyond the round must
/// copy it out (the usual shared_ptr-head structs make that one refcount).
class MessageView {
 public:
  MessageView(const MessageHeader* header, const Payload* payload)
      : header_(header), payload_(payload) {}

  const MessageHeader& header() const { return *header_; }
  const Payload& payload() const { return *payload_; }

  graph::EdgeId edge() const { return header_->edge; }
  graph::NodeId from() const { return header_->from; }
  graph::NodeId to() const { return header_->to; }
  std::uint32_t size_hint_words() const { return header_->size_hint_words; }

 private:
  const MessageHeader* header_;
  const Payload* payload_;
};

/// A contiguous zipped range over the two planes — what a node program
/// receives as its inbox. Iteration yields MessageView by value (two
/// pointers), so `for (const auto& m : inbox)` binds each view to the
/// loop's lifetime-extended temporary and reads exactly like the old
/// span-of-Message API. Same lifetime rule as MessageView.
class InboxView {
 public:
  class iterator {
   public:
    using value_type = MessageView;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::input_iterator_tag;

    iterator() = default;
    iterator(const MessageHeader* h, const Payload* p) : h_(h), p_(p) {}

    MessageView operator*() const { return {h_, p_}; }
    iterator& operator++() {
      ++h_;
      ++p_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    const MessageHeader* h_ = nullptr;
    const Payload* p_ = nullptr;
  };

  InboxView() = default;
  InboxView(const MessageHeader* headers, const Payload* payloads,
            std::size_t count)
      : headers_(headers), payloads_(payloads), count_(count) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  MessageView operator[](std::size_t i) const {
    return {headers_ + i, payloads_ + i};
  }
  MessageView front() const { return (*this)[0]; }

  iterator begin() const { return {headers_, payloads_}; }
  iterator end() const { return {headers_ + count_, payloads_ + count_}; }

 private:
  const MessageHeader* headers_ = nullptr;
  const Payload* payloads_ = nullptr;
  std::size_t count_ = 0;
};

/// The structure-of-arrays message container: one header plane and one
/// payload plane, always the same length. This is the *only* legal way to
/// hold messages in bulk (fl_lint FL008 flags stray std::vector<Message*>
/// declarations) — the delivery arena, every lane outbox, and the congest
/// carry/admitted buffers are all MessagePlanes.
///
/// Capacity is sticky: clear() and resize() never release storage, so a
/// steady-state round reuses last round's allocation. `allocations()`
/// counts capacity-growth events since construction — the regression
/// tests assert it stops moving once a run reaches steady state.
class MessagePlanes {
 public:
  std::size_t size() const { return headers_.size(); }
  bool empty() const { return headers_.empty(); }
  std::size_t capacity() const { return headers_.capacity(); }

  /// Capacity-growth events (reallocations of the planes) so far.
  std::uint64_t allocations() const { return allocations_; }

  void reserve(std::size_t cap) {
    note_growth(cap);
    headers_.reserve(cap);
    payloads_.reserve(cap);
  }

  /// Drop all messages (payloads are destroyed); capacity is retained.
  void clear() {
    headers_.clear();
    payloads_.clear();
  }

  /// Resize both planes. Growth default-constructs empty slots (the merge
  /// overwrites every one); shrinking destroys the tail's payloads.
  /// Capacity is retained either way.
  void resize(std::size_t count) {
    note_growth(count);
    headers_.resize(count);
    payloads_.resize(count);
  }

  void push_back(const MessageHeader& header, Payload&& payload) {
    note_growth(headers_.size() + 1);
    headers_.push_back(header);
    payloads_.push_back(std::move(payload));
  }

  MessageHeader& header(std::size_t i) { return headers_[i]; }
  const MessageHeader& header(std::size_t i) const { return headers_[i]; }
  Payload& payload(std::size_t i) { return payloads_[i]; }
  const Payload& payload(std::size_t i) const { return payloads_[i]; }

  MessageView view(std::size_t i) const {
    return {headers_.data() + i, payloads_.data() + i};
  }

  /// Zipped view of the element range [begin, end).
  InboxView range(std::size_t begin, std::size_t end) const {
    return {headers_.data() + begin, payloads_.data() + begin, end - begin};
  }

  /// O(1) buffer exchange — the engine's double-buffered arenas swap
  /// instead of copying, so both buffers' capacities persist across
  /// rounds. Allocation counters travel with their buffers.
  void swap(MessagePlanes& other) noexcept {
    headers_.swap(other.headers_);
    payloads_.swap(other.payloads_);
    std::swap(allocations_, other.allocations_);
  }

 private:
  // The two planes only ever grow in lockstep, so one counter (keyed on
  // the header plane's capacity) counts a growth event exactly once.
  void note_growth(std::size_t need) {
    if (need > headers_.capacity()) ++allocations_;
  }

  std::vector<MessageHeader> headers_;
  std::vector<Payload> payloads_;
  std::uint64_t allocations_ = 0;
};

/// Convenience accessor with a sharp error message on type mismatch: the
/// thrown BadPayloadCast names the expected and the held payload type.
template <typename T>
const T& payload_as(const Payload& p) {
  if (const T* v = p.get_if<T>()) return *v;
  throw BadPayloadCast(typeid(T), p.type());
}

template <typename T>
const T& payload_as(const MessageView& m) {
  return payload_as<T>(m.payload());
}

/// Pointer form of payload_as: nullptr instead of a throw on mismatch, for
/// protocols that dispatch on the payload type.
template <typename T>
const T* payload_if(const Payload& p) {
  return p.get_if<T>();
}

template <typename T>
const T* payload_if(const MessageView& m) {
  return m.payload().get_if<T>();
}

}  // namespace fl::sim
