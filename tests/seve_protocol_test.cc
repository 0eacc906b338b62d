#include "protocol/seve_client.h"
#include "protocol/seve_server.h"

#include <gtest/gtest.h>

#include "net/network.h"
#include "tests/test_actions.h"

namespace seve {
namespace {

constexpr Micros kLatency = 10000;  // 10 ms one-way
constexpr Micros kRtt = 2 * kLatency;

struct SeveFixture {
  EventLoop loop;
  Network net{&loop};
  std::unique_ptr<SeveServer> server;
  std::vector<std::unique_ptr<SeveClient>> clients;
  SeveOptions opts;

  SeveFixture(int n, const WorldState& initial, SeveOptions options,
              double max_speed = 10.0,
              AABB bounds = AABB{{-200.0, -200.0}, {200.0, 200.0}},
              std::vector<InterestProfile> profiles = {},
              std::vector<WorldState> initial_per_client = {}) {
    opts = options;
    InterestModel interest(max_speed, kRtt, opts.omega,
                           opts.velocity_culling, opts.interest_classes);
    server = std::make_unique<SeveServer>(NodeId(0), &loop, initial,
                                          CostModel{}, interest, opts,
                                          bounds);
    net.AddNode(server.get());
    for (int i = 0; i < n; ++i) {
      const WorldState& client_initial =
          initial_per_client.empty()
              ? initial
              : initial_per_client[static_cast<size_t>(i)];
      auto client = std::make_unique<SeveClient>(
          NodeId(static_cast<uint64_t>(i) + 1), &loop,
          ClientId(static_cast<uint64_t>(i)), NodeId(0), client_initial,
          [](const Action&, const WorldState&) -> Micros { return 100; },
          /*install_us=*/10, opts);
      net.AddNode(client.get());
      net.ConnectBidirectional(NodeId(0), client->id(),
                               LinkParams::LatencyOnly(kLatency));
      const InterestProfile profile =
          profiles.empty() ? ProfileAt({0.0, 0.0}, 10.0)
                           : profiles[static_cast<size_t>(i)];
      server->RegisterClient(client->client_id(), client->id(), profile);
      clients.push_back(std::move(client));
    }
    server->Start();
  }

  void Drain() {
    // Stop first: the periodic tick/push cycles reschedule themselves
    // forever while running, so RunUntilIdle would spin on them.
    server->Stop();
    loop.RunUntilIdle(2'000'000);
    server->FlushAll();
    loop.RunUntilIdle(2'000'000);
  }

  /// Runs until `t`, then quiesces.
  void RunUntilAndDrain(VirtualTime t) {
    loop.RunUntil(t);
    Drain();
  }
};

SeveOptions PushOptions() {
  SeveOptions opts;
  opts.proactive_push = true;
  opts.dropping = false;
  opts.tick_us = 20000;
  return opts;
}

SeveOptions ReplyOptions() {
  SeveOptions opts;
  opts.proactive_push = false;
  opts.dropping = false;
  return opts;
}

TEST(SeveProtocolTest, IncompleteWorldReplyRoundTrip) {
  SeveFixture fx(1, CounterState({1}), ReplyOptions());
  fx.clients[0]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(1), ClientId(0), ObjectId(1), 5,
                                   ProfileAt({0.0, 0.0}, 10.0)));
  fx.RunUntilAndDrain(500000);

  EXPECT_EQ(fx.clients[0]->stable().GetAttr(ObjectId(1), 1).AsInt(), 5);
  EXPECT_EQ(fx.clients[0]->pending_count(), 0u);
  // Server installed the completion into ζS.
  EXPECT_EQ(fx.server->authoritative().GetAttr(ObjectId(1), 1).AsInt(), 5);
  EXPECT_EQ(fx.server->committed_frontier(), 1);
  EXPECT_EQ(fx.server->stats().actions_committed, 1);
  // One-round-trip response (plus evaluation costs).
  EXPECT_GE(fx.clients[0]->stats().response_time_us.min(), kRtt);
  EXPECT_LE(fx.clients[0]->stats().response_time_us.max(), kRtt + 5000);
}

TEST(SeveProtocolTest, PushModeDeliversWithinOmegaBound) {
  SeveFixture fx(1, CounterState({1}), PushOptions());
  fx.clients[0]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(1), ClientId(0), ObjectId(1), 5,
                                   ProfileAt({0.0, 0.0}, 10.0)));
  fx.RunUntilAndDrain(500000);
  EXPECT_EQ(fx.clients[0]->stable().GetAttr(ObjectId(1), 1).AsInt(), 5);
  // First Bound claim: response within (1 + omega) RTT (+ eval slack).
  const int64_t response = fx.clients[0]->stats().response_time_us.max();
  EXPECT_LE(response,
            static_cast<int64_t>((1.0 + fx.opts.omega) * kRtt) + 5000);
  EXPECT_GE(response, kRtt);
}

TEST(SeveProtocolTest, InterestedClientReceivesForeignAction) {
  // Two clients near each other: client 1 must receive client 0's action.
  std::vector<InterestProfile> profiles{ProfileAt({0.0, 0.0}, 10.0),
                                        ProfileAt({5.0, 0.0}, 10.0)};
  SeveFixture fx(2, CounterState({1, 2}), PushOptions(), 10.0,
                 AABB{{-200.0, -200.0}, {200.0, 200.0}}, profiles);
  fx.clients[0]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(1), ClientId(0), ObjectId(1), 5,
                                   ProfileAt({0.0, 0.0}, 10.0)));
  fx.RunUntilAndDrain(500000);
  EXPECT_EQ(fx.clients[1]->stable().GetAttr(ObjectId(1), 1).AsInt(), 5);
  EXPECT_EQ(fx.clients[1]->eval_digests().size(), 1u);
}

TEST(SeveProtocolTest, FarClientDoesNotReceiveIrrelevantAction) {
  // Client 1 is far outside the Equation-1 bound.
  std::vector<InterestProfile> profiles{ProfileAt({0.0, 0.0}, 1.0),
                                        ProfileAt({150.0, 0.0}, 1.0)};
  SeveFixture fx(2, CounterState({1, 2}), PushOptions(), /*speed=*/1.0,
                 AABB{{-200.0, -200.0}, {200.0, 200.0}}, profiles);
  fx.clients[0]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(1), ClientId(0), ObjectId(1), 5,
                                   ProfileAt({0.0, 0.0}, 1.0)));
  fx.RunUntilAndDrain(500000);
  // The incomplete world: client 1 never evaluates the action and its
  // replica keeps the (stale, but irrelevant) initial value.
  EXPECT_TRUE(fx.clients[1]->eval_digests().empty());
  EXPECT_EQ(fx.clients[1]->stable().GetAttr(ObjectId(1), 1).AsInt(), 0);
  // The server still committed it (origin's completion).
  EXPECT_EQ(fx.server->authoritative().GetAttr(ObjectId(1), 1).AsInt(), 5);
}

TEST(SeveProtocolTest, BlindWriteSeedsMissingObject) {
  // Client 1 starts WITHOUT object 1 in its replica. Client 0 writes
  // object 1; then client 1 submits an action whose read set includes
  // object 1 — the closure's blind write must seed it.
  std::vector<WorldState> initials{CounterState({1, 2}),
                                   CounterState({2})};
  std::vector<InterestProfile> profiles{ProfileAt({0.0, 0.0}, 10.0),
                                        ProfileAt({3.0, 0.0}, 10.0)};
  SeveFixture fx(2, CounterState({1, 2}), ReplyOptions(), 10.0,
                 AABB{{-200.0, -200.0}, {200.0, 200.0}}, profiles,
                 initials);
  fx.clients[0]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(1), ClientId(0), ObjectId(1), 7,
                                   ProfileAt({0.0, 0.0}, 10.0)));
  fx.loop.RunUntil(300000);  // commit client 0's action into ζS

  fx.clients[1]->SubmitLocalAction(std::make_shared<CounterAdd>(
      ActionId(2), ClientId(1), ObjectId(2), 1, ProfileAt({3.0, 0.0}, 10.0),
      /*extra_reads=*/ObjectSet({ObjectId(1)})));
  fx.RunUntilAndDrain(600000);

  // The blind write carried object 1's committed value (7) to client 1.
  EXPECT_EQ(fx.clients[1]->stable().GetAttr(ObjectId(1), 1).AsInt(), 7);
  EXPECT_EQ(fx.clients[1]->stable().GetAttr(ObjectId(2), 1).AsInt(), 1);
  EXPECT_GT(fx.server->stats().blind_writes, 0);
}

TEST(SeveProtocolTest, TransitiveClosureShipsUncommittedDependency) {
  // Client 2 (far from client 0) submits an action reading an object that
  // an uncommitted action of client 0 wrote: the closure must include
  // client 0's action in client 2's reply even though Equation 1 alone
  // would not route it.
  std::vector<InterestProfile> profiles{ProfileAt({0.0, 0.0}, 1.0),
                                        ProfileAt({150.0, 0.0}, 1.0)};
  SeveFixture fx(2, CounterState({1, 2}), ReplyOptions(), /*speed=*/1.0,
                 AABB{{-200.0, -200.0}, {200.0, 200.0}}, profiles);
  fx.clients[0]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(1), ClientId(0), ObjectId(1), 7,
                                   ProfileAt({0.0, 0.0}, 1.0)));
  // Submit client 1's dependent action while client 0's is still
  // uncommitted (before its completion can reach the server).
  fx.loop.RunUntil(12000);
  fx.clients[1]->SubmitLocalAction(std::make_shared<CounterAdd>(
      ActionId(2), ClientId(1), ObjectId(2), 1,
      ProfileAt({150.0, 0.0}, 1.0), ObjectSet({ObjectId(1)})));
  fx.RunUntilAndDrain(600000);

  // Client 1 evaluated client 0's action (it was in the closure).
  EXPECT_EQ(fx.clients[1]->eval_digests().size(), 2u);
  EXPECT_EQ(fx.clients[1]->stable().GetAttr(ObjectId(1), 1).AsInt(), 7);
}

TEST(SeveProtocolTest, ConcurrentWritersStayConsistent) {
  std::vector<InterestProfile> profiles{ProfileAt({0.0, 0.0}, 10.0),
                                        ProfileAt({2.0, 0.0}, 10.0)};
  SeveFixture fx(2, CounterState({1}), PushOptions(), 10.0,
                 AABB{{-200.0, -200.0}, {200.0, 200.0}}, profiles);
  fx.clients[0]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(1), ClientId(0), ObjectId(1), 1,
                                   ProfileAt({0.0, 0.0}, 10.0)));
  fx.clients[1]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(2), ClientId(1), ObjectId(1), 1,
                                   ProfileAt({2.0, 0.0}, 10.0)));
  fx.RunUntilAndDrain(800000);

  EXPECT_EQ(fx.server->authoritative().GetAttr(ObjectId(1), 1).AsInt(), 2);
  for (const auto& client : fx.clients) {
    EXPECT_EQ(client->stable().GetAttr(ObjectId(1), 1).AsInt(), 2);
    EXPECT_EQ(client->pending_count(), 0u);
  }
  // Exactly one of the two reconciled (the later-serialized one).
  EXPECT_EQ(fx.clients[0]->stats().actions_reconciled +
                fx.clients[1]->stats().actions_reconciled,
            1);
  // Evaluation digests agree with the server's committed digests.
  for (const auto& client : fx.clients) {
    client->eval_digests().ForEach([&](SeqNum pos, ResultDigest digest) {
      const ResultDigest* committed =
          fx.server->committed_digests().Find(pos);
      ASSERT_NE(committed, nullptr);
      EXPECT_EQ(*committed, digest) << "pos " << pos;
    });
  }
}

TEST(SeveProtocolTest, DroppingBreaksDistantChain) {
  // Three clients in a spatial line, each conflicting with the next via
  // shared objects; the chain end is beyond the threshold from the
  // chain head, so the head's dependent action gets dropped.
  SeveOptions opts = PushOptions();
  opts.dropping = true;
  opts.threshold = 50.0;
  std::vector<InterestProfile> profiles{ProfileAt({0.0, 0.0}, 40.0),
                                        ProfileAt({60.0, 0.0}, 40.0),
                                        ProfileAt({120.0, 0.0}, 40.0)};
  // Shared objects: 1-2 between clients 0/1, 2-3 between clients 1/2.
  SeveFixture fx(3, CounterState({1, 2, 3}), opts, 10.0,
                 AABB{{-200.0, -200.0}, {200.0, 200.0}}, profiles);

  // Chain: c2 writes obj3; c1 reads obj3 writes obj2; c0 reads obj2 —
  // c0's action's chain reaches c2's action at distance 120 > 50.
  fx.clients[2]->SubmitLocalAction(std::make_shared<CounterAdd>(
      ActionId(3), ClientId(2), ObjectId(3), 1,
      ProfileAt({120.0, 0.0}, 40.0)));
  fx.loop.RunUntil(11000);
  fx.clients[1]->SubmitLocalAction(std::make_shared<CounterAdd>(
      ActionId(2), ClientId(1), ObjectId(2), 1, ProfileAt({60.0, 0.0}, 40.0),
      ObjectSet({ObjectId(3)})));
  fx.loop.RunUntil(22000);
  fx.clients[0]->SubmitLocalAction(std::make_shared<CounterAdd>(
      ActionId(1), ClientId(0), ObjectId(1), 1, ProfileAt({0.0, 0.0}, 40.0),
      ObjectSet({ObjectId(2)})));
  fx.RunUntilAndDrain(800000);

  // Client 1's action is dropped: its conflict chain reaches client 2's
  // still-uncommitted action 60 units away (> threshold 50). That break
  // also severs client 0's chain, so client 0's action survives.
  EXPECT_EQ(fx.server->stats().actions_dropped, 1);
  EXPECT_EQ(fx.clients[1]->drops_observed(), 1);
  EXPECT_EQ(fx.clients[1]->pending_count(), 0u);
  // The dropped action's optimistic effect was rolled back.
  EXPECT_EQ(fx.clients[1]->optimistic().GetAttr(ObjectId(2), 1).AsInt(), 0);
  // The other two committed.
  EXPECT_EQ(fx.server->stats().actions_committed, 2);
  EXPECT_EQ(fx.server->authoritative().GetAttr(ObjectId(3), 1).AsInt(), 1);
  EXPECT_EQ(fx.server->authoritative().GetAttr(ObjectId(2), 1).AsInt(), 0);
  EXPECT_EQ(fx.server->authoritative().GetAttr(ObjectId(1), 1).AsInt(), 1);
}

TEST(SeveProtocolTest, NoDropsWhenChainIsLocal) {
  SeveOptions opts = PushOptions();
  opts.dropping = true;
  opts.threshold = 50.0;
  std::vector<InterestProfile> profiles{ProfileAt({0.0, 0.0}, 10.0),
                                        ProfileAt({5.0, 0.0}, 10.0)};
  SeveFixture fx(2, CounterState({1}), opts, 10.0,
                 AABB{{-200.0, -200.0}, {200.0, 200.0}}, profiles);
  fx.clients[0]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(1), ClientId(0), ObjectId(1), 1,
                                   ProfileAt({0.0, 0.0}, 10.0)));
  fx.clients[1]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(2), ClientId(1), ObjectId(1), 1,
                                   ProfileAt({5.0, 0.0}, 10.0)));
  fx.RunUntilAndDrain(800000);
  EXPECT_EQ(fx.server->stats().actions_dropped, 0);
  EXPECT_EQ(fx.server->stats().actions_committed, 2);
}

TEST(SeveProtocolTest, CommitNoticeReachesClients) {
  SeveOptions opts = PushOptions();
  opts.commit_notice_period_us = 50000;
  SeveFixture fx(1, CounterState({1}), opts);
  fx.clients[0]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(1), ClientId(0), ObjectId(1), 5,
                                   ProfileAt({0.0, 0.0}, 10.0)));
  fx.loop.RunUntil(400000);
  fx.Drain();
  EXPECT_GE(fx.clients[0]->last_commit_notice(), 0);
}

TEST(SeveProtocolTest, ClosureSizeStatsPopulated) {
  SeveFixture fx(2, CounterState({1}), PushOptions());
  fx.clients[0]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(1), ClientId(0), ObjectId(1), 1,
                                   ProfileAt({0.0, 0.0}, 10.0)));
  fx.RunUntilAndDrain(500000);
  EXPECT_GT(fx.server->stats().closure_size.count(), 0);
}

// A movement for the updatable-queue tests: CounterAdd that the server
// may supersede (SeveOptions::move_supersession).
class CounterMove : public CounterAdd {
 public:
  using CounterAdd::CounterAdd;
  bool IsMovement() const override { return true; }
};

// Exposes the message entry point, so a test can order submits and
// completions exactly, with no client or link in between.
class InjectableServer : public SeveServer {
 public:
  using SeveServer::OnMessage;
  using SeveServer::SeveServer;

  void Deliver(std::shared_ptr<const MessageBody> body) {
    Message msg;
    msg.src = NodeId(1);
    msg.dst = id();
    msg.body = std::move(body);
    OnMessage(msg);
  }
};

// A completion flagged out-of-order must stay out of the audit even when
// the entry is installed by the cascade behind a dropped head: the head
// at pos 0 is a never-sent move that a newer move of its origin
// supersedes (the Information Bound drop path), which pops it and
// installs the already-completed pos 1.
TEST(SeveProtocolTest, DroppedHeadCascadeKeepsAuditExclusion) {
  SeveOptions opts = PushOptions();
  opts.dropping = true;
  opts.move_supersession = true;
  EventLoop loop;
  InjectableServer server(
      NodeId(0), &loop, CounterState({1, 2}), CostModel{},
      InterestModel(10.0, kRtt, opts.omega, opts.velocity_culling,
                    opts.interest_classes),
      opts, AABB{{-200.0, -200.0}, {200.0, 200.0}});

  server.Deliver(std::make_shared<SubmitActionBody>(
      std::make_shared<CounterMove>(ActionId(1), ClientId(0), ObjectId(1),
                                    1)));  // pos 0
  server.Deliver(std::make_shared<SubmitActionBody>(
      std::make_shared<CounterAdd>(ActionId(2), ClientId(1), ObjectId(2),
                                   1)));  // pos 1
  auto completion = std::make_shared<CompletionBody>();
  completion->pos = 1;
  completion->action_id = ActionId(2);
  completion->from = ClientId(1);
  completion->digest = 77;
  completion->out_of_order = true;
  server.Deliver(completion);
  EXPECT_EQ(server.committed_frontier(), 0);  // pos 0 still blocks

  server.Deliver(std::make_shared<SubmitActionBody>(
      std::make_shared<CounterMove>(ActionId(3), ClientId(0), ObjectId(1),
                                    2)));  // pos 2 supersedes pos 0
  EXPECT_EQ(server.stats().fanout.superseded_moves, 1);
  EXPECT_EQ(server.committed_frontier(), 2);
  EXPECT_EQ(server.stats().actions_committed, 1);
  EXPECT_EQ(server.committed_digests().Find(0), nullptr);
  EXPECT_EQ(server.committed_digests().Find(1), nullptr)
      << "an audit-excluded completion reached the committed digests";
}

}  // namespace
}  // namespace seve
