// Delta-sync rejoin + anti-entropy (DESIGN.md §15): the IBF/strata
// reconciliation primitives, the client<->server catch-up handshake and
// its deterministic full-snapshot fallback, the catch-up fixes that ride
// along (NACK + retry for unknown clients, retry after lost transfers,
// paced chunk sends), background client anti-entropy, and the shard
// ownership-view ring exchange.
//
// The invariant every end-to-end arm enforces: a delta rejoin must leave
// every replica bit-identical to the full-snapshot path — the IBF
// machinery is allowed to change bytes on the wire, never state.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "net/channel.h"
#include "net/network.h"
#include "protocol/seve_client.h"
#include "protocol/seve_server.h"
#include "shard/shard_map.h"
#include "shard/shard_server.h"
#include "sim/consistency.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "sync/ibf.h"
#include "sync/reconcile.h"
#include "sync/strata.h"
#include "tests/test_actions.h"
#include "world/attrs.h"

namespace seve {
namespace {

constexpr Micros kLatency = 10000;
constexpr Micros kRtt = 2 * kLatency;

// ---------------------------------------------------------------------
// Reconciliation primitives
// ---------------------------------------------------------------------

bool HasEntry(const sync::Summary& s, uint64_t key, uint64_t ver) {
  return std::find(s.begin(), s.end(), sync::SummaryEntry{key, ver}) !=
         s.end();
}

TEST(DeltaSyncUnit, IbfDecodesSymmetricDifference) {
  sync::Summary a;
  sync::Summary b;
  for (uint64_t i = 1; i <= 100; ++i) {
    const sync::SummaryEntry e{i, sync::Mix64(i)};
    a.push_back(e);
    if (i != 5 && i != 6) b.push_back(e);  // a-only: 5, 6
  }
  b.push_back({200, sync::Mix64(200)});  // b-only: 200
  a.push_back({150, 1});                 // changed object: one element
  b.push_back({150, 2});                 // per version (joint hashing)

  sync::Ibf ia(64);
  sync::Ibf ib(64);
  ia.InsertAll(a);
  ib.InsertAll(b);
  ASSERT_TRUE(ia.Subtract(ib));
  const sync::IbfDiff diff = ia.Decode();
  ASSERT_TRUE(diff.ok);
  EXPECT_EQ(diff.local.size(), 3u);
  EXPECT_TRUE(HasEntry(diff.local, 5, sync::Mix64(5)));
  EXPECT_TRUE(HasEntry(diff.local, 6, sync::Mix64(6)));
  EXPECT_TRUE(HasEntry(diff.local, 150, 1));
  EXPECT_EQ(diff.remote.size(), 2u);
  EXPECT_TRUE(HasEntry(diff.remote, 200, sync::Mix64(200)));
  EXPECT_TRUE(HasEntry(diff.remote, 150, 2));
}

TEST(DeltaSyncUnit, IbfIndependentOfInsertionOrder) {
  sync::Summary fwd;
  for (uint64_t i = 1; i <= 64; ++i) fwd.push_back({i, sync::Mix64(i)});
  sync::Summary rev(fwd.rbegin(), fwd.rend());
  sync::Ibf a(32);
  sync::Ibf b(32);
  a.InsertAll(fwd);
  b.InsertAll(rev);
  EXPECT_EQ(a, b);
}

TEST(DeltaSyncUnit, IbfDecodeFailureIsDeterministic) {
  // 40 difference elements cannot peel out of 2 cells; both ends of the
  // wire must agree on the failure, so Decode is pure.
  sync::Ibf a(2);
  sync::Ibf b(2);
  for (uint64_t i = 1; i <= 40; ++i) a.Insert(i, sync::Mix64(i));
  ASSERT_TRUE(a.Subtract(b));
  EXPECT_FALSE(a.Decode().ok);
  EXPECT_FALSE(a.Decode().ok);
}

TEST(DeltaSyncUnit, StrataEstimateAndFilterSizing) {
  sync::Summary a;
  for (uint64_t i = 1; i <= 500; ++i) a.push_back({i, sync::Mix64(i)});
  sync::Summary b(a.begin(), a.end() - 40);

  EXPECT_EQ(sync::BuildStrata(a).Estimate(sync::BuildStrata(a)), 0);
  const int64_t est = sync::BuildStrata(a).Estimate(sync::BuildStrata(b));
  EXPECT_GT(est, 0);

  const sync::SyncSizing sizing{/*min_cells=*/64, /*alpha=*/2.0,
                                /*max_cells=*/0};
  EXPECT_EQ(sync::CellsFor(0, sizing), 64);
  EXPECT_GE(sync::CellsFor(est, sizing), est);
  const sync::SyncSizing capped{64, 2.0, /*max_cells=*/128};
  EXPECT_EQ(sync::CellsFor(1000, capped), 128);
}

TEST(DeltaSyncUnit, PlanDeltaShipsStaleAndMissingRemovesGone) {
  WorldState server = CounterState({1, 2, 3, 4, 5, 6, 7, 8});
  WorldState client = server;
  client.SetAttr(ObjectId(3), 1, Value(int64_t{99}));  // stale version
  ASSERT_TRUE(client.Remove(ObjectId(7)).ok());        // missing remotely
  client.SetAttr(ObjectId(21), 1, Value(int64_t{0}));  // gone locally

  const sync::DeltaPlan plan =
      sync::PlanDelta(server, sync::BuildIbf(client, 64));
  ASSERT_TRUE(plan.ok);
  EXPECT_EQ(plan.ship, (std::vector<ObjectId>{ObjectId(3), ObjectId(7)}));
  EXPECT_EQ(plan.remove, (std::vector<ObjectId>{ObjectId(21)}));
}

TEST(DeltaSyncUnit, PlanKeyDiffListsDivergentKeys) {
  sync::Summary mine;
  sync::Summary theirs;
  for (uint64_t i = 1; i <= 10; ++i) {
    mine.push_back({i, /*owner=*/1});
    theirs.push_back({i, i == 4 || i == 9 ? uint64_t{2} : uint64_t{1}});
  }
  const sync::KeyDiffPlan plan =
      sync::PlanKeyDiff(mine, sync::BuildIbf(theirs, 64));
  ASSERT_TRUE(plan.ok);
  EXPECT_EQ(plan.keys, (std::vector<uint64_t>{4, 9}));
}

// ---------------------------------------------------------------------
// Client <-> server fixture
// ---------------------------------------------------------------------

struct SyncFixture {
  EventLoop loop;
  Network net{&loop};
  std::unique_ptr<SeveServer> server;
  std::vector<std::unique_ptr<SeveClient>> clients;

  SyncFixture(int n, const SeveOptions& opts, const WorldState& initial,
              bool register_all = true) {
    InterestModel interest(10.0, kRtt, opts.omega);
    server = std::make_unique<SeveServer>(
        NodeId(0), &loop, initial, CostModel{}, interest, opts,
        AABB{{-100.0, -100.0}, {100.0, 100.0}});
    net.AddNode(server.get());
    for (int i = 0; i < n; ++i) {
      auto client = std::make_unique<SeveClient>(
          NodeId(static_cast<uint64_t>(i) + 1), &loop,
          ClientId(static_cast<uint64_t>(i)), NodeId(0), initial,
          [](const Action&, const WorldState&) -> Micros { return 100; },
          10, opts);
      net.AddNode(client.get());
      net.ConnectBidirectional(NodeId(0), client->id(),
                               LinkParams::LatencyOnly(kLatency));
      if (register_all || i != 0) {
        server->RegisterClient(client->client_id(), client->id(),
                               ProfileAt({static_cast<double>(i), 0.0},
                                         10.0));
      }
      client->StartAntiEntropy();  // no-op unless the period is set
      clients.push_back(std::move(client));
    }
    server->Start();
  }

  void EnableReliable() {
    ChannelConfig cfg;
    cfg.initial_rto_us = 50'000;
    cfg.ack_delay_us = 5'000;
    server->EnableReliableTransport(cfg);
    for (auto& client : clients) client->EnableReliableTransport(cfg);
  }

  void Drain() {
    loop.RunUntil(loop.now() + 1'000'000);
    server->Stop();
    // Disarm the self-rescheduling AE/retry timers or the loop never
    // goes idle.
    for (auto& client : clients) client->StopSync();
    loop.RunUntilIdle(1'000'000);
    server->FlushAll();
    loop.RunUntilIdle(1'000'000);
  }

  void ExpectConverged(const char* ctx) {
    for (const auto& client : clients) {
      EXPECT_EQ(client->stable().Digest(),
                server->authoritative().Digest())
          << ctx << " client " << client->client_id().value();
    }
  }

  void ExpectAuditClean(const char* ctx) {
    std::vector<const DigestMap*> replicas;
    for (const auto& client : clients) {
      replicas.push_back(&client->eval_digests());
    }
    const ConsistencyReport audit =
        CheckDigestConsistency(server->committed_digests(), replicas);
    EXPECT_GT(audit.compared, 0) << ctx;
    EXPECT_TRUE(audit.consistent()) << ctx << ": " << audit.ToString();
  }
};

// Counters 1..n, one object each.
WorldState CounterWorld(uint64_t n) {
  WorldState state;
  for (uint64_t id = 1; id <= n; ++id) {
    state.SetAttr(ObjectId(id), 1, Value(int64_t{0}));
  }
  return state;
}

SeveOptions BaseOptions() {
  SeveOptions opts;
  opts.proactive_push = true;
  opts.dropping = false;
  opts.tick_us = 20000;
  opts.all_client_completions = true;
  return opts;
}

// Crash client 0 early, let the survivors change `writes` distinct
// objects while it is down, rejoin, then submit once more post-rejoin.
void RunRejoinScript(SyncFixture* fx, int writes) {
  fx->clients[0]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(1), ClientId(0), ObjectId(1), 5,
                                   ProfileAt({0.0, 0.0}, 10.0)));
  fx->loop.RunUntil(15'000);
  fx->clients[0]->Fail();
  for (int k = 0; k < writes; ++k) {
    fx->clients[1]->SubmitLocalAction(std::make_shared<CounterAdd>(
        ActionId(static_cast<uint64_t>(k) + 10), ClientId(1),
        ObjectId(static_cast<uint64_t>(k % 8) + 1), k + 1,
        ProfileAt({1.0, 0.0}, 10.0)));
  }
  fx->loop.RunUntil(400'000);
  fx->clients[0]->Rejoin();
  EXPECT_TRUE(fx->clients[0]->rejoining());
  fx->loop.RunUntil(700'000);
  EXPECT_FALSE(fx->clients[0]->rejoining());
  fx->clients[0]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(2), ClientId(0), ObjectId(1), 3,
                                   ProfileAt({0.0, 0.0}, 10.0)));
  fx->Drain();
}

// The tentpole guarantee at fixture scale: an IBF rejoin ends in exactly
// the state the full-snapshot rejoin produces, on every replica, while
// shipping a delta instead of the world.
TEST(DeltaSyncFixture, DeltaRejoinMatchesFullSnapshotPath) {
  const WorldState world = CounterState({1, 2, 3, 4, 5, 6, 7, 8});

  SyncFixture full(3, BaseOptions(), world);
  full.EnableReliable();
  RunRejoinScript(&full, 6);

  SeveOptions opts = BaseOptions();
  opts.delta_sync = true;
  SyncFixture delta(3, opts, world);
  delta.EnableReliable();
  RunRejoinScript(&delta, 6);

  EXPECT_EQ(full.server->authoritative().Digest(),
            delta.server->authoritative().Digest());
  for (size_t i = 0; i < full.clients.size(); ++i) {
    EXPECT_EQ(full.clients[i]->stable().Digest(),
              delta.clients[i]->stable().Digest())
        << "client " << i;
  }
  full.ExpectConverged("full");
  delta.ExpectConverged("delta");

  const SyncCounters& sync = delta.server->stats().sync;
  EXPECT_EQ(sync.delta_rejoins, 1);
  EXPECT_EQ(sync.fallbacks, 0);
  EXPECT_EQ(sync.decode_failures, 0);
  EXPECT_GT(sync.sync_rounds, 0);
  EXPECT_GT(sync.objects_shipped, 0);
  EXPECT_GT(sync.delta_bytes, 0);
  // The full-snapshot arm never entered the handshake.
  EXPECT_EQ(full.server->stats().sync.delta_rejoins, 0);
  EXPECT_GE(full.server->stats().snapshot_chunks, 1);
}

// A filter cap far below the real difference makes the peel fail every
// time — the server must fall back to the full snapshot stream and the
// client must end bit-identical anyway.
TEST(DeltaSyncFixture, DecodeFailureFallsBackToFullSnapshot) {
  SeveOptions opts = BaseOptions();
  opts.delta_sync = true;
  opts.sync_max_cells = 2;
  SyncFixture fx(3, opts,
                 CounterState({1, 2, 3, 4, 5, 6, 7, 8}));
  fx.EnableReliable();
  RunRejoinScript(&fx, 8);

  const SyncCounters& sync = fx.server->stats().sync;
  EXPECT_GE(sync.decode_failures, 1);
  EXPECT_GE(sync.fallbacks, 1);
  EXPECT_EQ(sync.delta_rejoins, 0);
  EXPECT_GE(fx.server->stats().snapshot_chunks, 1);
  fx.ExpectConverged("fallback");
}

// Satellite fix: a catch-up request from a client the server has never
// registered used to be dropped silently, stranding the client in
// rejoining_ forever. Now it gets a NACK, and the retry timer wins the
// race once registration lands.
TEST(DeltaSyncFixture, UnknownClientNackThenRetryConverges) {
  SeveOptions opts = BaseOptions();
  opts.delta_sync = true;
  opts.snapshot_retry_us = 150'000;
  SyncFixture fx(2, opts, CounterState({1, 2}),
                 /*register_all=*/false);  // client 0 unknown

  fx.clients[1]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(1), ClientId(1), ObjectId(2), 7,
                                   ProfileAt({1.0, 0.0}, 10.0)));
  fx.loop.RunUntil(50'000);
  fx.clients[0]->Rejoin();
  fx.loop.RunUntil(120'000);
  EXPECT_GE(fx.server->stats().sync.nacks, 1);
  EXPECT_TRUE(fx.clients[0]->rejoining());

  // Registration arrives late; the next retry converges.
  fx.server->RegisterClient(ClientId(0), NodeId(1),
                            ProfileAt({0.0, 0.0}, 10.0));
  fx.loop.RunUntil(600'000);
  EXPECT_FALSE(fx.clients[0]->rejoining());
  EXPECT_GE(fx.clients[0]->stats().sync.snapshot_retries, 1);
  fx.Drain();
  fx.ExpectConverged("nack-retry");
}

// Satellite fix: a snapshot whose chunks die on the wire (plain
// transport) no longer strands the client — the retry re-requests and
// the re-collected tail still contains everything, because the first
// transfer marks its tail positions sent only when it actually ships.
TEST(DeltaSyncFixture, LostTransferRecoversViaRetry) {
  SeveOptions opts = BaseOptions();
  opts.snapshot_retry_us = 150'000;
  SyncFixture fx(2, opts, CounterState({1, 2}));

  fx.clients[1]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(1), ClientId(1), ObjectId(2), 4,
                                   ProfileAt({1.0, 0.0}, 10.0)));
  fx.loop.RunUntil(100'000);

  // Every server->client-0 frame dies: the request arrives, the chunks
  // do not.
  LinkParams broken = LinkParams::LatencyOnly(kLatency);
  broken.drop_probability = 1.0;
  fx.net.ConnectDirected(NodeId(0), NodeId(1), broken);
  fx.clients[0]->Fail();
  fx.clients[0]->Rejoin();
  fx.loop.RunUntil(300'000);
  EXPECT_TRUE(fx.clients[0]->rejoining());

  fx.net.ConnectDirected(NodeId(0), NodeId(1),
                         LinkParams::LatencyOnly(kLatency));
  fx.loop.RunUntil(800'000);
  EXPECT_FALSE(fx.clients[0]->rejoining());
  EXPECT_GE(fx.clients[0]->stats().sync.snapshot_retries, 1);
  fx.Drain();
  fx.ExpectConverged("lost-transfer");
}

// Catch-up pacing: a snapshot of more than 64 chunks enters the send
// path at most 64 chunks per tick, with pushes to the rejoiner held back
// meanwhile, and must end in exactly the state of the same rejoin
// shipped as one small transfer.
TEST(DeltaSyncFixture, PacedCatchupBoundsBurstAndConverges) {
  const WorldState world = CounterWorld(200);
  SeveOptions opts = BaseOptions();  // 64 objects per chunk: 4 chunks

  SyncFixture burst(3, opts, world);
  burst.EnableReliable();
  RunRejoinScript(&burst, 6);

  opts.snapshot_chunk_objects = 1;  // 200 chunks per snapshot
  SyncFixture paced(3, opts, world);
  paced.EnableReliable();
  RunRejoinScript(&paced, 6);

  EXPECT_EQ(burst.server->stats().snapshot_chunks, 4);
  EXPECT_EQ(burst.server->stats().sync.max_chunks_per_tick, 4);
  EXPECT_EQ(paced.server->stats().snapshot_chunks, 200);
  EXPECT_EQ(paced.server->stats().sync.max_chunks_per_tick,
            SerializerCore::kCatchupChunksPerTick);

  EXPECT_EQ(burst.server->authoritative().Digest(),
            paced.server->authoritative().Digest());
  for (size_t i = 0; i < burst.clients.size(); ++i) {
    EXPECT_EQ(burst.clients[i]->stable().Digest(),
              paced.clients[i]->stable().Digest())
        << "client " << i;
  }
  paced.ExpectConverged("paced");
  paced.ExpectAuditClean("paced");
}

// Regression: a client that crashes again while its paced snapshot is
// still streaming, then rejoins, must get a whole fresh transfer. The
// dead incarnation's remaining chunks used to keep pacing out on the new
// channel incarnation; their final chunk ended the new catch-up with the
// objects of the chunks sent before the second crash missing, and the
// real transfer was then ignored.
TEST(DeltaSyncFixture, CrashDuringPacedCatchupRejoinsWhole) {
  SeveOptions opts = BaseOptions();
  opts.snapshot_chunk_objects = 1;  // 300 chunks: five paced ticks
  SyncFixture fx(3, opts, CounterWorld(300));
  fx.EnableReliable();

  fx.clients[0]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(1), ClientId(0), ObjectId(1), 5,
                                   ProfileAt({0.0, 0.0}, 10.0)));
  fx.loop.RunUntil(15'000);
  fx.clients[0]->Fail();
  for (uint64_t k = 0; k < 6; ++k) {
    fx.clients[1]->SubmitLocalAction(std::make_shared<CounterAdd>(
        ActionId(k + 10), ClientId(1), ObjectId(50 * k + 1),
        static_cast<int64_t>(k) + 1, ProfileAt({1.0, 0.0}, 10.0)));
  }
  fx.loop.RunUntil(400'000);
  fx.clients[0]->Rejoin();
  // Crash again right after the first paced batch left the server, and
  // stay down until it would have landed.
  while (fx.server->stats().sync.max_chunks_per_tick == 0 &&
         fx.loop.now() < 600'000) {
    fx.loop.RunUntil(fx.loop.now() + 1'000);
  }
  ASSERT_EQ(fx.server->stats().sync.max_chunks_per_tick,
            SerializerCore::kCatchupChunksPerTick);
  fx.clients[0]->Fail();
  fx.loop.RunUntil(fx.loop.now() + 15'000);
  fx.clients[0]->Rejoin();
  fx.loop.RunUntil(900'000);
  EXPECT_FALSE(fx.clients[0]->rejoining());
  EXPECT_EQ(fx.server->stats().rejoins, 2);
  fx.clients[0]->SubmitLocalAction(
      std::make_shared<CounterAdd>(ActionId(2), ClientId(0), ObjectId(2), 3,
                                   ProfileAt({0.0, 0.0}, 10.0)));
  fx.Drain();
  EXPECT_LE(fx.server->stats().sync.max_chunks_per_tick,
            SerializerCore::kCatchupChunksPerTick);
  fx.ExpectConverged("second crash");
  fx.ExpectAuditClean("second crash");
}

// Background anti-entropy: with proactive push off, the Incomplete World
// Model leaves non-origin replicas stale by design; the periodic
// reconciliation exchange must repair them without any crash.
TEST(DeltaSyncFixture, AntiEntropyRepairsQuietDivergence) {
  SeveOptions opts = BaseOptions();
  opts.proactive_push = false;
  const WorldState world = CounterState({1, 2, 3});

  auto submit_script = [](SyncFixture* fx) {
    for (uint64_t k = 1; k <= 3; ++k) {
      fx->clients[0]->SubmitLocalAction(std::make_shared<CounterAdd>(
          ActionId(k), ClientId(0), ObjectId(k), static_cast<int64_t>(k),
          ProfileAt({0.0, 0.0}, 10.0)));
    }
    fx->loop.RunUntil(800'000);
    fx->Drain();
  };

  // Control: nothing tells client 1 about client 0's commits.
  SyncFixture control(2, opts, world);
  submit_script(&control);
  EXPECT_NE(control.clients[1]->stable().Digest(),
            control.server->authoritative().Digest());

  opts.delta_sync = true;
  opts.anti_entropy_period_us = 100'000;
  SyncFixture ae(2, opts, world);
  submit_script(&ae);
  EXPECT_EQ(ae.clients[1]->stable().Digest(),
            ae.server->authoritative().Digest());
  EXPECT_GT(ae.server->stats().sync.ae_rounds, 0);
  EXPECT_GE(ae.clients[1]->stats().sync.ae_objects_repaired, 1);
}

// ---------------------------------------------------------------------
// Shard ownership-view ring anti-entropy
// ---------------------------------------------------------------------

// A handoff this shard did not participate in leaves its ownership view
// stale; the ring exchange against the successor must repair every
// third party from the authoritative map.
TEST(DeltaSyncShard, OwnerMapAntiEntropyRepairsThirdPartyStaleness) {
  EventLoop loop;
  Network net(&loop);
  WorldState initial;
  for (uint64_t i = 0; i < 6; ++i) {
    // Two objects per column of the 3x1 grid; kAttrPosition doubles as
    // the counter attr, which is fine — no actions run here.
    initial.SetAttr(
        ObjectId(i + 1), kAttrPosition,
        Value(Vec2{-100.0 + 100.0 * static_cast<double>(i / 2), 0.0}));
  }
  ShardMap map(AABB{{-150.0, -150.0}, {150.0, 150.0}}, 3, initial);
  ASSERT_EQ(map.shard_count(), 3);
  ASSERT_EQ(map.ShardOfObject(ObjectId(1)), 0);
  ASSERT_EQ(map.ShardOfObject(ObjectId(5)), 2);

  SeveOptions opts;
  opts.tick_us = 20'000;
  opts.shard_anti_entropy_period_us = 50'000;
  InterestModel interest(10.0, kRtt, opts.omega);
  std::vector<std::unique_ptr<SeveShardServer>> shards;
  for (ShardId s = 0; s < 3; ++s) {
    shards.push_back(std::make_unique<SeveShardServer>(
        ShardServerNode(s), &loop, s, &map, initial, interest, CostModel{},
        opts));
    net.AddNode(shards.back().get());
  }
  for (ShardId a = 0; a < 3; ++a) {
    for (ShardId b = a + 1; b < 3; ++b) {
      net.ConnectBidirectional(ShardServerNode(a), ShardServerNode(b),
                               LinkParams::LatencyOnly(kLatency));
    }
    for (ShardId b = 0; b < 3; ++b) {
      shards[static_cast<size_t>(a)]->RegisterPeer(b, ShardServerNode(b));
    }
  }

  // Hand object 1 from shard 0 to shard 2; shard 1 is the third party.
  ASSERT_TRUE(shards[0]->StartMigration(ObjectId(1), 2));
  loop.RunUntil(300'000);
  EXPECT_EQ(shards[0]->pending_migrations(), 0u);
  EXPECT_EQ(map.ShardOfObject(ObjectId(1)), 2);
  EXPECT_EQ(shards[0]->stale_owner_entries(), 0);  // source stays fresh
  EXPECT_EQ(shards[2]->stale_owner_entries(), 0);  // dest stays fresh
  EXPECT_EQ(shards[1]->stale_owner_entries(), 1);  // third party is stale

  for (auto& shard : shards) shard->StartAntiEntropy();
  loop.RunUntil(600'000);
  for (auto& shard : shards) shard->StopAntiEntropy();
  loop.RunUntilIdle(1'000'000);

  int64_t repairs = 0;
  int64_t rounds = 0;
  for (const auto& shard : shards) {
    EXPECT_EQ(shard->stale_owner_entries(), 0)
        << "shard " << shard->shard();
    repairs += shard->stats().sync.owner_repairs;
    rounds += shard->stats().sync.sync_rounds;
  }
  EXPECT_GE(repairs, 1);
  EXPECT_GT(rounds, 0);
}

// CounterAdd's attribute 1 is kAttrPosition, which places objects in
// shards; this counter lives in kAttrBumps so objects can carry both.
class BumpAdd : public Action {
 public:
  BumpAdd(ActionId id, ClientId origin, ObjectId target)
      : Action(id, origin, 0), target_(target), set_({target}) {}
  const ObjectSet& ReadSet() const override { return set_; }
  const ObjectSet& WriteSet() const override { return set_; }
  Result<ResultDigest> Apply(WorldState* state) const override {
    if (!state->Contains(target_)) return Status::Conflict("missing");
    const int64_t value = state->GetAttr(target_, kAttrBumps).AsInt() + 1;
    state->SetAttr(target_, kAttrBumps, Value(value));
    return static_cast<ResultDigest>(value) ^ (id().value() << 32);
  }
  InterestProfile Interest() const override {
    return ProfileAt({-50.0, 0.0}, 10.0);
  }

 private:
  ObjectId target_;
  ObjectSet set_;
};

// The sharded tier runs catch-up through the same pacer as the single
// server: a rejoin into a 100-object partition at one object per chunk
// ships at most 64 chunks per tick and still catches up exactly.
TEST(DeltaSyncShard, RejoinIntoLargePartitionIsPaced) {
  EventLoop loop;
  Network net(&loop);
  WorldState initial;
  for (uint64_t i = 0; i < 200; ++i) {
    const ObjectId id(i + 1);
    initial.SetAttr(id, kAttrPosition, Value(Vec2{i < 100 ? -50.0 : 50.0,
                                                  0.0}));
    initial.SetAttr(id, kAttrBumps, Value(int64_t{0}));
  }
  ShardMap map(AABB{{-100.0, -100.0}, {100.0, 100.0}}, 2, initial);
  ASSERT_EQ(map.objects_of(0).size(), 100u);

  SeveOptions opts = BaseOptions();
  opts.proactive_push = false;  // the sharded tier's protocol
  opts.snapshot_chunk_objects = 1;
  const InterestModel interest(10.0, kRtt, opts.omega);
  std::vector<std::unique_ptr<SeveShardServer>> shards;
  for (ShardId s = 0; s < 2; ++s) {
    shards.push_back(std::make_unique<SeveShardServer>(
        ShardServerNode(s), &loop, s, &map, initial, interest, CostModel{},
        opts));
    net.AddNode(shards.back().get());
  }
  net.ConnectBidirectional(ShardServerNode(0), ShardServerNode(1),
                           LinkParams::LatencyOnly(kLatency));
  for (auto& shard : shards) {
    for (ShardId s = 0; s < 2; ++s) shard->RegisterPeer(s, ShardServerNode(s));
  }
  SeveShardServer& home = *shards[0];
  std::vector<std::unique_ptr<SeveClient>> clients;
  for (uint64_t i = 0; i < 2; ++i) {
    auto client = std::make_unique<SeveClient>(
        NodeId(i + 1), &loop, ClientId(i), ShardServerNode(0), initial,
        [](const Action&, const WorldState&) -> Micros { return 100; }, 10,
        opts);
    net.AddNode(client.get());
    net.ConnectBidirectional(ShardServerNode(0), client->id(),
                             LinkParams::LatencyOnly(kLatency));
    home.RegisterClient(ClientId(i), client->id(), ObjectId(i + 1),
                        ProfileAt({-50.0, 0.0}, 10.0));
    clients.push_back(std::move(client));
  }

  clients[0]->SubmitLocalAction(
      std::make_shared<BumpAdd>(ActionId(1), ClientId(0), ObjectId(1)));
  loop.RunUntil(15'000);
  clients[0]->Fail();
  for (uint64_t k = 0; k < 6; ++k) {
    clients[1]->SubmitLocalAction(std::make_shared<BumpAdd>(
        ActionId(k + 10), ClientId(1), ObjectId(10 * k + 2)));
  }
  loop.RunUntil(400'000);
  clients[0]->Rejoin();
  loop.RunUntil(800'000);
  EXPECT_FALSE(clients[0]->rejoining());
  loop.RunUntilIdle(1'000'000);

  EXPECT_EQ(home.stats().rejoins, 1);
  EXPECT_EQ(home.stats().snapshot_chunks, 100);
  EXPECT_GE(home.stats().sync.max_chunks_per_tick, 1);
  EXPECT_LE(home.stats().sync.max_chunks_per_tick,
            SerializerCore::kCatchupChunksPerTick);
  // The rejoined replica is exactly the home partition.
  EXPECT_EQ(clients[0]->stable().Digest(), home.authoritative().Digest());
  const ConsistencyReport audit = CheckDigestConsistency(
      home.committed_digests(),
      {&clients[0]->eval_digests(), &clients[1]->eval_digests()});
  EXPECT_GT(audit.compared, 0);
  EXPECT_TRUE(audit.consistent()) << audit.ToString();
}

// ---------------------------------------------------------------------
// Runner-level digest parity
// ---------------------------------------------------------------------

Scenario RejoinScenario() {
  Scenario s = Scenario::TableOne(8);
  s.world.num_walls = 200;
  s.moves_per_client = 10;
  s.link_kbps = 0.0;
  s.world.spawn.pattern = SpawnConfig::Pattern::kGrid;
  s.world.spawn.grid_spacing = 100.0;
  // Crash early, rejoin after the last generated move: the catch-up
  // duration difference between the snapshot and delta paths must not
  // gate any submission differently across arms.
  s.failures.push_back({/*client=*/1, /*fail_at_us=*/600'000,
                        /*rejoin_at_us=*/3'400'000});
  return s;
}

Scenario WithDelta(Scenario s) {
  s.seve.delta_sync = true;
  return s;
}

void ExpectDigestParity(const RunReport& a, const RunReport& b,
                        const char* ctx) {
  EXPECT_EQ(a.final_state_digest, b.final_state_digest) << ctx;
  ASSERT_EQ(a.client_state_digests.size(), b.client_state_digests.size())
      << ctx;
  for (size_t i = 0; i < a.client_state_digests.size(); ++i) {
    EXPECT_EQ(a.client_state_digests[i], b.client_state_digests[i])
        << ctx << " client " << i;
  }
}

// The acceptance arms: full-snapshot vs IBF rejoin over a clean network
// and under 1% loss with the reliable channel — bit-identical digests in
// all four runs.
TEST(DeltaSyncRunner, RejoinDigestParityCleanAndLossy) {
  const Scenario clean = RejoinScenario();
  Scenario lossy = clean;
  lossy.drop_probability = 0.01;
  lossy.reliable_transport = true;

  for (const Scenario& base : {clean, lossy}) {
    const char* ctx =
        base.reliable_transport ? "lossy+reliable" : "clean";
    const RunReport full = RunScenario(Architecture::kSeve, base);
    const RunReport delta =
        RunScenario(Architecture::kSeve, WithDelta(base));
    EXPECT_TRUE(full.consistency.consistent()) << ctx;
    EXPECT_TRUE(delta.consistency.consistent()) << ctx;
    EXPECT_EQ(full.server_stats.sync.delta_rejoins, 0) << ctx;
    EXPECT_GE(delta.server_stats.sync.delta_rejoins, 1) << ctx;
    EXPECT_EQ(delta.server_stats.sync.fallbacks, 0) << ctx;
    EXPECT_EQ(delta.client_stats.rejoins, 1) << ctx;
    ExpectDigestParity(full, delta, ctx);
  }
}

// Forcing the fallback at runner scale must not cost a bit of state
// either: tiny filter cap -> decode failure -> full stream -> same
// digests as the plain full-snapshot run.
TEST(DeltaSyncRunner, FallbackArmKeepsDigestParity) {
  const Scenario base = RejoinScenario();
  Scenario fallback = WithDelta(base);
  fallback.seve.sync_max_cells = 2;
  const RunReport full = RunScenario(Architecture::kSeve, base);
  const RunReport report = RunScenario(Architecture::kSeve, fallback);
  EXPECT_GE(report.server_stats.sync.fallbacks, 1);
  EXPECT_EQ(report.server_stats.sync.delta_rejoins, 0);
  ExpectDigestParity(full, report, "fallback");
}

// Digest stability of the delta-rejoin run itself: identical results on
// 1 vs 8 sweep workers in all three wire modes, with every sync frame
// round-tripping the codecs cleanly in kVerify mode.
TEST(DeltaSyncRunner, DigestIndependentOfJobsAndWireMode) {
  std::vector<SweepJob> jobs;
  for (const WireMode mode :
       {WireMode::kDeclared, WireMode::kEncoded, WireMode::kVerify}) {
    SweepJob job;
    job.label = "delta-rejoin";
    job.x = static_cast<double>(jobs.size());
    job.arch = Architecture::kSeve;
    job.scenario = WithDelta(RejoinScenario());
    job.scenario.wire_mode = mode;
    jobs.push_back(std::move(job));
  }
  const std::vector<SweepResult> serial = RunSweep(jobs, 1);
  const std::vector<SweepResult> parallel = RunSweep(jobs, 8);
  ASSERT_EQ(serial.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(serial[i].digest, parallel[i].digest) << "job " << i;
    EXPECT_EQ(serial[i].report.wire_verify_failures, 0) << "job " << i;
    EXPECT_GE(serial[i].report.server_stats.sync.delta_rejoins, 1)
        << "job " << i;
  }
  // Wire accounting must not perturb the reconciliation itself.
  for (size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_EQ(serial[0].report.final_state_digest,
              serial[i].report.final_state_digest);
  }
}

}  // namespace
}  // namespace seve
