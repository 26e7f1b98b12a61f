// Tests for the small-buffer payload engine: the storage classes and the
// types Payload refuses at compile time, move-only ownership, cast
// diagnostics, FL_WIRE_FIELDS field lists, and a pinned golden delivery
// trace covering every payload category.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "sim/network.hpp"
#include "sim/payload.hpp"
#include "sim/wire.hpp"
#include "trace_hash.hpp"

namespace fl::sim {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

// ------------------------------------------------------ storage classes

struct TrivialSmall {  // inline, memcpy-relocatable
  std::uint64_t a = 0;
  std::uint32_t b = 0;
};
static_assert(Payload::stores_inline<TrivialSmall>);
static_assert(Payload::trivially_relocatable<TrivialSmall>);
FL_WIRE_FIELDS(TrivialSmall, a, b);  // padded: the list skips the padding

struct SharedSmall {  // inline, but needs real move/destroy calls
  std::shared_ptr<int> p;
};
static_assert(Payload::stores_inline<SharedSmall>);
// If the arena ever started memcpy-relocating a shared_ptr-owning type,
// this is the assert that must fire.
static_assert(!Payload::trivially_relocatable<SharedSmall>);
FL_WIRE_FIELDS(SharedSmall, p);

struct FullInline {  // fills the inline buffer exactly
  std::uint64_t words[3] = {0, 0, 0};
};
static_assert(sizeof(FullInline) == Payload::kInlineSize);
static_assert(Payload::stores_inline<FullInline>);

// ----------------------------------------------------- refused types

// Payload's converting constructor is constrained on stores_inline, so
// each of these fails to compile at the send site.
struct Oversized {  // > kInlineSize
  std::uint64_t words[4] = {0, 0, 0, 0};
};
struct Overaligned {  // alignment the inline buffer cannot honour
  alignas(32) std::uint64_t v = 0;
};
struct ThrowingMove {  // relocation must never throw mid-merge
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
};
static_assert(!std::is_constructible_v<Payload, Oversized>);
static_assert(!std::is_constructible_v<Payload, Overaligned>);
static_assert(!std::is_constructible_v<Payload, ThrowingMove>);

template <typename T>
constexpr bool sendable = requires(Context& ctx, T v) {
  ctx.send(EdgeId{0}, std::move(v));
};
// The positive case keeps the probe honest: a requires-expression that
// never compiled would pass the negative asserts vacuously.
static_assert(sendable<FullInline>);
static_assert(!sendable<Oversized>);
static_assert(!sendable<Overaligned>);
static_assert(!sendable<ThrowingMove>);

TEST(Payload, InlineRoundTrip) {
  Payload p(TrivialSmall{41, 7});
  ASSERT_TRUE(p.has_value());
  const auto* v = p.get_if<TrivialSmall>();
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->a, 41u);
  EXPECT_EQ(v->b, 7u);
  EXPECT_EQ(p.get_if<int>(), nullptr);  // wrong type: null, no throw
}

TEST(Payload, MoveTransfersOwnershipPerStorageClass) {
  // Inline non-trivial: the shared_ptr must survive the relocation and
  // the moved-from payload must be empty, not a double owner.
  auto token = std::make_shared<int>(5);
  Payload a{SharedSmall{token}};
  EXPECT_EQ(token.use_count(), 2);
  Payload b(std::move(a));
  EXPECT_FALSE(a.has_value());
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_EQ(b.get_if<SharedSmall>()->p.get(), token.get());
  b.reset();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Payload, MoveOnlyPayloadType) {
  Payload p(std::make_unique<int>(123));
  auto* held = p.get_if<std::unique_ptr<int>>();
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(**held, 123);
  Payload q(std::move(p));
  EXPECT_FALSE(p.has_value());
  EXPECT_EQ(**q.get_if<std::unique_ptr<int>>(), 123);
  // Take the value back out through the mutable accessor.
  std::unique_ptr<int> out = std::move(*q.get_if<std::unique_ptr<int>>());
  EXPECT_EQ(*out, 123);
}

// ---------------------------------------------------------- field lists

// fl_wire_fields ties exactly the listed members, in declaration order, as
// const references into the value itself — for a padded struct and for a
// struct owning a shared_ptr alike.
TEST(WireFields, TiesListedMembersInDeclarationOrder) {
  using TrivialTie = std::tuple<const std::uint64_t&, const std::uint32_t&>;
  using SharedTie = std::tuple<const std::shared_ptr<int>&>;

  const TrivialSmall t{41, 7};
  const auto tf = fl_wire_fields(t);
  static_assert(std::is_same_v<decltype(fl_wire_fields(t)), TrivialTie>);
  EXPECT_EQ(&std::get<0>(tf), &t.a);
  EXPECT_EQ(&std::get<1>(tf), &t.b);

  const SharedSmall s{std::make_shared<int>(3)};
  const auto sf = fl_wire_fields(s);
  static_assert(std::is_same_v<decltype(fl_wire_fields(s)), SharedTie>);
  EXPECT_EQ(&std::get<0>(sf), &s.p);
  EXPECT_EQ(s.p.use_count(), 1);  // tied by reference, never copied
}

// ------------------------------------------------------ cast diagnostics

TEST(Payload, CrossTypeCastNamesBothTypes) {
  const Payload p(TrivialSmall{});
  try {
    (void)payload_as<FullInline>(p);
    FAIL() << "expected BadPayloadCast";
  } catch (const BadPayloadCast& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("FullInline"), std::string::npos) << what;
    EXPECT_NE(what.find("TrivialSmall"), std::string::npos) << what;
  }
}

TEST(Payload, EmptyPayloadCastSaysEmpty) {
  const Payload p{};  // empty
  EXPECT_EQ(p.type(), nullptr);
  try {
    (void)payload_as<TrivialSmall>(p);
    FAIL() << "expected BadPayloadCast";
  } catch (const BadPayloadCast& e) {
    EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos);
  }
  EXPECT_EQ(payload_if<TrivialSmall>(p), nullptr);
}

TEST(Payload, PayloadIfMatchesAndDispatches) {
  const Payload p(SharedSmall{std::make_shared<int>(9)});
  EXPECT_EQ(payload_if<TrivialSmall>(p), nullptr);
  const auto* s = payload_if<SharedSmall>(p);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(*s->p, 9);
}

// The zipped view is two pointers; a view (and references through it) must
// stay valid exactly as long as the planes it points into are unmutated.
TEST(Payload, MessageViewReadsBothPlanes) {
  MessagePlanes planes;
  MessageHeader h;
  h.edge = 7;
  h.from = 1;
  h.to = 2;
  h.size_hint_words = 3;
  planes.push_back(h, Payload(TrivialSmall{11, 22}));
  const MessageView m = planes.view(0);
  EXPECT_EQ(m.edge(), 7u);
  EXPECT_EQ(m.from(), 1u);
  EXPECT_EQ(m.to(), 2u);
  EXPECT_EQ(m.size_hint_words(), 3u);
  EXPECT_EQ(&m.header(), &planes.header(0));
  EXPECT_EQ(&m.payload(), &planes.payload(0));
  EXPECT_EQ(payload_as<TrivialSmall>(m).a, 11u);
}

// --------------------------------------- delivery golden trace (pinned)

/// Sends one payload of every storage class per active round — trivial,
/// shared-owning, buffer-filling — over edges in *reverse*
/// incidence order (defeating the send-side cursor fast path on purpose),
/// and logs everything received in order.
class MixedPayloadProbe final : public NodeProgram {
 public:
  MixedPayloadProbe(NodeId self, unsigned active) : self_(self), active_(active) {}

  std::vector<std::tuple<std::size_t, NodeId, std::string>> heard;

  void on_start(Context& ctx) override { maybe_send(ctx); }

  void on_round(Context& ctx, InboxView inbox) override {
    // (Tags built via += — GCC 12's -Wrestrict false-positives on
    // char* + std::string temporaries under -Werror.)
    auto tag = [](char kind, std::uint64_t v) {
      std::string s(1, kind);
      s += std::to_string(v);
      return s;
    };
    for (const auto& m : inbox) {
      if (const auto* t = payload_if<TrivialSmall>(m)) {
        heard.emplace_back(ctx.round(), m.from(), tag('t', t->a));
      } else if (const auto* s = payload_if<SharedSmall>(m)) {
        heard.emplace_back(ctx.round(), m.from(),
                           tag('s', static_cast<std::uint64_t>(*s->p)));
      } else {
        const auto& o = payload_as<FullInline>(m);
        heard.emplace_back(ctx.round(), m.from(), tag('o', o.words[0]));
      }
    }
    maybe_send(ctx);
  }

  bool done() const override { return true; }

 private:
  void maybe_send(Context& ctx) {
    if (ctx.round() >= active_) return;
    const auto edges = ctx.incident_edges();
    for (std::size_t i = edges.size(); i-- > 0;) {
      const auto r = static_cast<std::uint64_t>(ctx.round());
      switch ((i + self_) % 3) {
        case 0: ctx.send(edges[i], TrivialSmall{r, self_}); break;
        case 1:
          ctx.send(edges[i],
                   SharedSmall{std::make_shared<int>(static_cast<int>(r))});
          break;
        default: ctx.send(edges[i], FullInline{{r, 0, 0}}); break;
      }
    }
  }

  NodeId self_;
  unsigned active_;
};

/// Golden-trace anchor for payload delivery. Formerly the flat-vs-legacy
/// A/B over every storage class (the legacy engine certified the flat
/// arena bit-identical before it was deleted); the pinned hash freezes
/// that certified behaviour — per-node logs of (round, from, decoded
/// payload tag) in delivery order, plus RunStats/Metrics — in LOCAL and
/// under a never-binding budget (admission runs, defers nothing).
TEST(PayloadGoldenTrace, AllStorageClassesMatchPinnedTrace) {
  util::Xoshiro256 rng(7);
  const Graph g = graph::erdos_renyi_gnm(32, 96, rng);

  for (const CongestConfig congest :
       {CongestConfig{}, CongestConfig{std::uint64_t{1} << 40}}) {
    SCOPED_TRACE(congest.enforced() ? "budget 2^40" : "LOCAL");
    Network net(g, 3);
    net.set_congest(congest);
    net.install_all<MixedPayloadProbe>(4u);
    const RunStats stats = net.run(40);
    EXPECT_TRUE(stats.terminated);
    EXPECT_EQ(stats.rounds, 5u);
    EXPECT_EQ(stats.messages, 768u);

    const Metrics& m = net.metrics();
    testing::TraceHash h;
    h.u64(stats.rounds).u64(stats.messages).u64(m.words_total);
    for (const auto c : m.messages_per_round) h.u64(c);
    for (const auto c : m.messages_per_node) h.u64(c);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& heard = net.program_as<MixedPayloadProbe>(v).heard;
      h.u64(heard.size());
      for (const auto& [round, from, tag] : heard)
        h.u64(round).u64(from).str(tag);
    }
    EXPECT_EQ(h.value(), 0x013a6c5fba1fb3e4ull)
        << "payload golden trace moved: 0x" << std::hex << h.value();
  }
}

/// Regression: a payload that outlives its round (the arena recycles slots
/// by move-assignment) must be destroyed exactly once.
TEST(Payload, ArenaRecyclingReleasesOwnersExactlyOnce) {
  auto token = std::make_shared<int>(0);
  {
    const Graph g = graph::path(2);
    Network net(g, 1);
    net.install([&](NodeId v) {
      class P final : public NodeProgram {
       public:
        P(NodeId self, std::shared_ptr<int> tok)
            : self_(self), tok_(std::move(tok)) {}
        void on_start(Context& ctx) override {
          if (self_ == 0)
            for (int i = 0; i < 3; ++i)
              ctx.send(ctx.incident_edges()[0], SharedSmall{tok_});
        }
        void on_round(Context& ctx, InboxView inbox) override {
          for (const auto& m : inbox)  // echo once, then quiesce
            if (self_ == 1 && ctx.round() == 1)
              ctx.send(m.edge(), SharedSmall{payload_as<SharedSmall>(m).p});
        }
        bool done() const override { return true; }

       private:
        NodeId self_;
        std::shared_ptr<int> tok_;
      };
      return std::make_unique<P>(v, token);
    });
    const auto stats = net.run(10);
    EXPECT_TRUE(stats.terminated);
    EXPECT_EQ(stats.messages, 6u);
  }
  // Network destroyed: every in-arena/in-flight copy must be gone.
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace fl::sim
