#include "perfbench/src/harness.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/rng.h"
#include "net/channel.h"
#include "net/network.h"
#include "protocol/interest.h"
#include "protocol/msg.h"
#include "protocol/seve_client.h"
#include "protocol/seve_server.h"
#include "shard/rebalancer.h"
#include "shard/shard_map.h"
#include "shard/shard_server.h"
#include "sim/consistency.h"
#include "sim/sweep.h"
#include "store/rw_set.h"
#include "world/attrs.h"

namespace perfbench {
namespace {

using seve::Action;
using seve::ActionId;
using seve::Architecture;
using seve::ClientId;
using seve::DigestMap;
using seve::EventLoop;
using seve::InterestModel;
using seve::InterestProfile;
using seve::LinkParams;
using seve::ManhattanWorld;
using seve::Message;
using seve::Micros;
using seve::NodeId;
using seve::ObjectId;
using seve::Scenario;
using seve::SeveClient;
using seve::SeveServer;
using seve::SeveShardServer;
using seve::ShardId;
using seve::VirtualTime;
using seve::WorldState;

// The node ids, link parameters and interest profiles below mirror
// sim/runner.cc: any difference would change the report digest.
NodeId ServerNode() { return NodeId(0); }
NodeId ClientNode(int index) {
  return NodeId(static_cast<uint64_t>(index) + 1);
}

LinkParams MakeLink(const Scenario& s) {
  if (s.link_kbps > 0.0) {
    return LinkParams::FromKbps(s.one_way_latency_us, s.link_kbps,
                                s.msg_overhead_bytes, s.drop_probability);
  }
  LinkParams params = LinkParams::LatencyOnly(s.one_way_latency_us);
  params.per_message_overhead_bytes = s.msg_overhead_bytes;
  params.drop_probability = s.drop_probability;
  return params;
}

InterestProfile InitialProfile(const ManhattanWorld& world, int index) {
  InterestProfile profile;
  profile.position = world.InitialState()
                         .GetAttr(ManhattanWorld::AvatarId(index),
                                  seve::kAttrPosition)
                         .AsVec2();
  profile.radius = world.config().move_effect_range;
  profile.interest_class = 1;
  return profile;
}

uint64_t ActionOf(const Message& msg) {
  if (msg.body == nullptr) return 0;
  switch (msg.body->kind()) {
    case seve::kSubmitAction:
      return static_cast<const seve::SubmitActionBody&>(*msg.body)
          .action->id()
          .value();
    case seve::kCompletion:
      return static_cast<const seve::CompletionBody&>(*msg.body)
          .action_id.value();
    case seve::kDropNotice:
      return static_cast<const seve::DropNoticeBody&>(*msg.body)
          .action_id.value();
    case seve::kDeliverActions: {
      const auto& body =
          static_cast<const seve::DeliverActionsBody&>(*msg.body);
      return body.actions.size() == 1 ? body.actions[0].action->id().value()
                                      : 0;
    }
    default:
      return 0;
  }
}

SpanKind SpanFor(const SeveServer*, const Message& msg) {
  switch (msg.body == nullptr ? 0 : msg.body->kind()) {
    case seve::kSubmitAction:
      return SpanKind::kServerSubmit;
    case seve::kCompletion:
      return SpanKind::kServerCompletion;
    case seve::kRejoin:
    case seve::kSnapshotRequest:
    case seve::kSyncRequest:
    case seve::kSyncIBF:
      return SpanKind::kServerSync;
    default:
      return SpanKind::kServerOther;
  }
}
SpanKind SpanFor(const SeveShardServer*, const Message&) {
  return SpanKind::kShardHandle;
}
SpanKind SpanFor(const SeveClient*, const Message&) {
  return SpanKind::kClientHandle;
}

/// State every traced node shares: the tracer and the per-tick sampler of
/// the serializers' uncommitted queues. The sampler runs from the hooks
/// (first traced call of each tick) because scheduling events of its own
/// would change the run.
struct Hooks {
  Tracer* tracer = nullptr;
  const EventLoop* loop = nullptr;
  Micros tick_us = 1;
  int64_t last_tick = -1;
  std::vector<const SeveServer*> servers;
  std::vector<const SeveShardServer*> shards;
  int64_t samples = 0;
  int64_t sum = 0;
  int64_t peak = 0;

  void Sample() {
    const int64_t tick = loop->now() / tick_us;
    if (tick == last_tick) return;
    last_tick = tick;
    int64_t depth = 0;
    for (const SeveServer* s : servers) {
      depth += static_cast<int64_t>(s->uncommitted());
    }
    for (const SeveShardServer* s : shards) {
      depth += static_cast<int64_t>(s->uncommitted());
    }
    ++samples;
    sum += depth;
    peak = std::max(peak, depth);
  }
};

/// A library node whose message handler runs inside a span.
template <typename Base>
class Traced final : public Base {
 public:
  template <typename... Args>
  explicit Traced(Hooks* hooks, Args&&... args)
      : Base(std::forward<Args>(args)...), hooks_(hooks) {}

 protected:
  void OnMessage(const Message& msg) override {
    hooks_->Sample();
    ScopedSpan span(hooks_->tracer,
                    SpanFor(static_cast<const Base*>(nullptr), msg),
                    ActionOf(msg));
    Base::OnMessage(msg);
  }

 private:
  Hooks* hooks_;
};

}  // namespace

bool RunTraced(const Workload& workload, Tracer* tracer, TracedRun* out) {
  const Architecture arch = workload.arch;
  if (arch != Architecture::kSeve && arch != Architecture::kSeveSharded) {
    return false;
  }
  const seve::ObjectSetCounters store_before = seve::GetObjectSetCounters();

  Scenario s = workload.scenario;
  EventLoop loop;
  seve::Network net(&loop, s.seed ^ 0x6e657477ULL);
  std::optional<ManhattanWorld> world;
  {
    ScopedSpan span(tracer, SpanKind::kSetupWorld);
    s.world.num_avatars = s.num_clients;
    seve::ApplyWorkload(&s);
    net.set_wire_mode(s.wire_mode);
    world.emplace(s.world, s.seed);
  }

  Hooks hooks;
  hooks.tracer = tracer;
  hooks.loop = &loop;
  hooks.tick_us = s.seve.tick_us;

  int64_t walls_checked = 0;
  seve::ActionCostFn cost_fn = [&](const Action& action,
                                   const WorldState& view) -> Micros {
    ScopedSpan span(tracer, SpanKind::kCost, action.id().value());
    if (s.fixed_move_cost_us.has_value()) return *s.fixed_move_cost_us;
    const seve::Vec2 pos = action.Interest().position;
    const int walls = world->CountWallsNear(
        pos, s.world.visibility * s.cost.wall_check_radius_factor);
    walls_checked += walls;
    const int avatars = world->CountAvatarsNear(
        view, pos, s.world.visibility, ObjectId::Invalid());
    return s.cost.MoveCost(walls, avatars);
  };

  const LinkParams link = MakeLink(s);
  const Micros rtt_us = 2 * s.one_way_latency_us;

  std::unique_ptr<Traced<SeveServer>> server;
  std::vector<std::unique_ptr<Traced<SeveClient>>> clients;
  std::unique_ptr<seve::ShardMap> shard_map;
  std::vector<std::unique_ptr<Traced<SeveShardServer>>> shards;
  std::vector<NodeId> shard_nodes;
  WorldState sharded_view;
  DigestMap sharded_authority;

  auto add_node = [&](seve::Node* node) {
    net.AddNode(node);
    if (s.reliable_transport) node->EnableReliableTransport(s.channel);
  };
  auto client_initial = [&](int i) -> WorldState {
    if (!s.workload.sparse_replicas) return world->InitialState();
    WorldState state;
    const seve::Object* avatar =
        world->InitialState().Find(ManhattanWorld::AvatarId(i));
    if (avatar != nullptr) state.Upsert(*avatar);
    return state;
  };
  auto observer = [&]() -> const WorldState& {
    if (server != nullptr) return server->authoritative();
    sharded_view = WorldState{};
    for (const auto& srv : shards) {
      const WorldState& part = srv->authoritative();
      for (const ObjectId id : part.ObjectIds()) {
        sharded_view.Upsert(*part.Find(id));
      }
    }
    return sharded_view;
  };

  {
    ScopedSpan span(tracer, SpanKind::kSetupNodes);
    seve::SeveOptions opts = s.seve;
    if (arch == Architecture::kSeveSharded) {
      opts.proactive_push = false;
      opts.dropping = false;
    }
    const InterestModel interest(s.world.speed, rtt_us, opts.omega,
                                 opts.velocity_culling,
                                 opts.interest_classes);
    if (arch == Architecture::kSeve) {
      server = std::make_unique<Traced<SeveServer>>(
          &hooks, ServerNode(), &loop, world->InitialState(), s.cost,
          interest, opts, s.world.bounds);
      add_node(server.get());
      hooks.servers.push_back(server.get());
      for (int i = 0; i < s.num_clients; ++i) {
        auto client = std::make_unique<Traced<SeveClient>>(
            &hooks, ClientNode(i), &loop, ClientId(static_cast<uint64_t>(i)),
            ServerNode(), client_initial(i), cost_fn, s.cost.install_us,
            opts);
        add_node(client.get());
        net.ConnectBidirectional(ServerNode(), ClientNode(i), link);
        client->set_load_factor(s.client_load_factor);
        server->RegisterClient(client->client_id(), ClientNode(i),
                               InitialProfile(*world, i));
        clients.push_back(std::move(client));
      }
      server->Start();
      for (auto& client : clients) client->StartAntiEntropy();
    } else {
      shard_map = std::make_unique<seve::ShardMap>(s.world.bounds, s.shards,
                                                   world->InitialState());
      for (ShardId sh = 0; sh < shard_map->shard_count(); ++sh) {
        const NodeId node_id = seve::ShardServerNode(sh);
        auto shard = std::make_unique<Traced<SeveShardServer>>(
            &hooks, node_id, &loop, sh, shard_map.get(),
            world->InitialState(), interest, s.cost, opts);
        add_node(shard.get());
        hooks.shards.push_back(shard.get());
        shard_nodes.push_back(node_id);
        shards.push_back(std::move(shard));
      }
      for (size_t a = 0; a < shard_nodes.size(); ++a) {
        for (size_t b = a + 1; b < shard_nodes.size(); ++b) {
          net.ConnectBidirectional(shard_nodes[a], shard_nodes[b], link);
        }
        for (size_t b = 0; b < shard_nodes.size(); ++b) {
          shards[a]->RegisterPeer(static_cast<ShardId>(b), shard_nodes[b]);
        }
      }
      for (int i = 0; i < s.num_clients; ++i) {
        const ShardId home =
            shard_map->ShardOfObject(ManhattanWorld::AvatarId(i));
        const NodeId home_node = shard_nodes[static_cast<size_t>(home)];
        auto client = std::make_unique<Traced<SeveClient>>(
            &hooks, ClientNode(i), &loop, ClientId(static_cast<uint64_t>(i)),
            home_node, client_initial(i), cost_fn, s.cost.install_us, opts);
        add_node(client.get());
        client->set_load_factor(s.client_load_factor);
        net.ConnectBidirectional(home_node, ClientNode(i), link);
        shards[static_cast<size_t>(home)]->RegisterClient(
            client->client_id(), ClientNode(i), ManhattanWorld::AvatarId(i),
            InitialProfile(*world, i));
        clients.push_back(std::move(client));
      }
      for (auto& client : clients) client->StartAntiEntropy();
      for (auto& shard : shards) shard->StartAntiEntropy();
    }
  }

  // ---- Crash/rejoin and migration schedules -------------------------------
  for (const Scenario::FailureEvent& f : s.failures) {
    if (f.client < 0 || f.client >= s.num_clients) continue;
    const int c = f.client;
    loop.At(f.fail_at_us,
            [&, c]() { clients[static_cast<size_t>(c)]->Fail(); });
    if (f.rejoin_at_us > f.fail_at_us) {
      loop.At(f.rejoin_at_us,
              [&, c]() { clients[static_cast<size_t>(c)]->Rejoin(); });
    }
  }
  VirtualTime last_migration = 0;
  if (arch == Architecture::kSeveSharded) {
    for (const Scenario::MigrationEvent& m : s.migrations) {
      if (m.client < 0 || m.client >= s.num_clients) continue;
      if (m.to_shard < 0 || m.to_shard >= static_cast<int>(shards.size())) {
        continue;
      }
      last_migration = std::max(last_migration, m.at_us);
      const int c = m.client;
      const ShardId to = static_cast<ShardId>(m.to_shard);
      loop.At(m.at_us, [&, c, to]() {
        const ObjectId avatar = ManhattanWorld::AvatarId(c);
        const ShardId from = shard_map->ShardOfObject(avatar);
        if (from == to) return;
        net.ConnectBidirectional(shard_nodes[static_cast<size_t>(to)],
                                 ClientNode(c), link);
        ScopedSpan span(tracer, SpanKind::kStartMigration);
        shards[static_cast<size_t>(from)]->StartMigration(avatar, to);
      });
    }
  }

  // ---- Move streams ---------------------------------------------------------
  seve::Rng gen_rng(s.seed ^ 0x67656e);
  VirtualTime last_submission = 0;
  for (int i = 0; i < s.num_clients; ++i) {
    const VirtualTime start = static_cast<VirtualTime>(
        gen_rng.NextBounded(static_cast<uint64_t>(s.move_period_us)));
    for (int k = 0; k < s.moves_per_client; ++k) {
      const VirtualTime when =
          start + static_cast<VirtualTime>(k) * s.move_period_us;
      last_submission = std::max(last_submission, when);
      loop.At(when, [&, i, k]() {
        const ActionId id((static_cast<uint64_t>(i) << 32) |
                          static_cast<uint64_t>(k));
        const seve::Tick tick = loop.now() / s.seve.tick_us;
        SeveClient& client = *clients[static_cast<size_t>(i)];
        hooks.Sample();
        std::shared_ptr<const seve::MoveAction> move;
        {
          ScopedSpan span(tracer, SpanKind::kMakeMove, id.value());
          move = world->MakeMove(id, ClientId(static_cast<uint64_t>(i)), i,
                                 tick, client.optimistic(),
                                 s.move_period_us);
        }
        ScopedSpan span(tracer, SpanKind::kClientSubmit, id.value());
        client.SubmitLocalAction(std::move(move));
      });
    }
  }

  // ---- Visibility sampling (Figure 8 x-axis) --------------------------------
  double visible_sum = 0.0;
  int64_t visible_samples = 0;
  const Micros sample_period = 500 * seve::kMicrosPerMilli;
  seve::InlineFunction<96> sample = [&]() {
    if (loop.now() > last_submission) return;
    const WorldState& state = observer();
    for (int i = 0; i < s.num_clients; ++i) {
      const ObjectId avatar = ManhattanWorld::AvatarId(i);
      const seve::Vec2 pos =
          state.GetAttr(avatar, seve::kAttrPosition).AsVec2();
      visible_sum += world->CountAvatarsNear(state, pos, s.world.visibility,
                                             avatar);
      ++visible_samples;
    }
    loop.After(sample_period, [&sample]() { sample(); });
  };
  if (s.workload.sample_visibility) {
    loop.After(sample_period, [&sample]() { sample(); });
  }

  // ---- Shard load sampling + rebalancing -----------------------------------
  std::vector<double> imbalance_windows;
  int64_t moves_planned = 0;
  std::vector<int64_t> prev_submits(shards.size(), 0);
  int64_t prev_migrations_out = 0;
  seve::InlineFunction<128> rebalance_tick = [&]() {
    ScopedSpan tick_span(tracer, SpanKind::kRebalance);
    std::vector<int64_t> peaks;
    peaks.reserve(shards.size());
    int64_t peak_sum = 0;
    int64_t peak_max = 0;
    for (const auto& shard : shards) {
      const int64_t p = shard->TakeWindowQueuePeak();
      peaks.push_back(p);
      peak_sum += p;
      peak_max = std::max(peak_max, p);
    }
    if (peak_sum > 0) {
      const double mean = static_cast<double>(peak_sum) /
                          static_cast<double>(peaks.size());
      imbalance_windows.push_back(static_cast<double>(peak_max) / mean);
    }
    if (loop.now() > last_submission) return;
    std::vector<int64_t> arrivals(shards.size(), 0);
    int64_t migrations_out = 0;
    int64_t in_flight = 0;
    for (size_t sh = 0; sh < shards.size(); ++sh) {
      const int64_t submits = shards[sh]->counters().submits;
      arrivals[sh] = submits - prev_submits[sh];
      prev_submits[sh] = submits;
      migrations_out += shards[sh]->counters().migrations_out;
      in_flight += static_cast<int64_t>(shards[sh]->pending_migrations()) +
                   static_cast<int64_t>(shards[sh]->pending_adoptions());
    }
    const bool poisoned =
        migrations_out != prev_migrations_out || in_flight != 0;
    prev_migrations_out = migrations_out;
    if (s.rebalance.enabled && !poisoned && peak_sum > 0) {
      std::vector<std::vector<ObjectId>> movable(shards.size());
      for (int i = 0; i < s.num_clients; ++i) {
        const ObjectId avatar = ManhattanWorld::AvatarId(i);
        const ShardId owner = shard_map->ShardOfObject(avatar);
        movable[static_cast<size_t>(owner)].push_back(avatar);
      }
      std::vector<seve::ShardLoad> loads;
      loads.reserve(shards.size());
      for (size_t sh = 0; sh < shards.size(); ++sh) {
        loads.push_back(seve::ShardLoad{
            static_cast<ShardId>(sh), arrivals[sh],
            static_cast<int64_t>(movable[sh].size())});
      }
      seve::RebalancePolicy policy;
      policy.headroom = s.rebalance.headroom;
      policy.max_moves = s.rebalance.max_moves_per_epoch;
      const std::vector<seve::MigrationMove> moves =
          seve::PlanRebalance(loads, movable, policy);
      moves_planned += static_cast<int64_t>(moves.size());
      for (const seve::MigrationMove& mv : moves) {
        const int c = static_cast<int>(mv.object.value()) - 1;
        net.ConnectBidirectional(shard_nodes[static_cast<size_t>(mv.to)],
                                 ClientNode(c), link);
        ScopedSpan span(tracer, SpanKind::kStartMigration);
        shards[static_cast<size_t>(mv.from)]->StartMigration(mv.object,
                                                             mv.to);
      }
    }
    loop.After(s.rebalance.period_us,
               [&rebalance_tick]() { rebalance_tick(); });
  };
  if (arch == Architecture::kSeveSharded) {
    loop.After(s.rebalance.period_us,
               [&rebalance_tick]() { rebalance_tick(); });
  }

  // ---- Run to quiescence ----------------------------------------------------
  const Micros push_period =
      static_cast<Micros>(s.seve.omega * static_cast<double>(rtt_us));
  VirtualTime last_activity = std::max(last_submission, last_migration);
  for (const Scenario::FailureEvent& f : s.failures) {
    last_activity =
        std::max(last_activity, std::max(f.fail_at_us, f.rejoin_at_us));
  }
  Micros drain_slack = 100 * seve::kMicrosPerMilli;
  if (s.reliable_transport) {
    drain_slack += 8 * s.channel.initial_rto_us + 2 * s.channel.max_rto_us;
  }
  {
    ScopedSpan span(tracer, SpanKind::kRunUntil);
    loop.RunUntil(last_activity + s.one_way_latency_us + s.seve.tick_us +
                  push_period + drain_slack);
  }
  {
    ScopedSpan span(tracer, SpanKind::kFlushAll);
    if (server != nullptr) {
      server->Stop();
      for (auto& client : clients) client->StopSync();
      server->FlushAll();
    } else {
      for (auto& shard : shards) shard->StopAntiEntropy();
      for (auto& client : clients) client->StopSync();
    }
  }
  {
    ScopedSpan span(tracer, SpanKind::kRunUntilIdle);
    loop.RunUntilIdle(s.max_drain_events);
  }

  // ---- Collect (mirrors sim/runner.cc) -------------------------------------
  seve::RunReport& report = out->report;
  report.architecture = arch;
  report.num_clients = s.num_clients;
  report.end_time = loop.now();
  report.events_run = loop.events_run();

  std::vector<const DigestMap*> replicas;
  for (const auto& client : clients) {
    report.client_stats.Merge(client->stats());
    report.response_us.Merge(client->stats().response_time_us);
    replicas.push_back(&client->eval_digests());
  }
  const DigestMap* authority = nullptr;
  Micros busy_us = 0;
  if (server != nullptr) {
    report.server_stats = server->stats();
    report.server_traffic = server->traffic();
    authority = &server->committed_digests();
    busy_us = server->cpu_busy_us();
  } else {
    for (const auto& shard : shards) {
      report.server_stats.Merge(shard->stats());
      report.server_traffic.Merge(shard->traffic());
      seve::ShardCounters counters = shard->counters();
      counters.migrations_pending =
          static_cast<int64_t>(shard->pending_migrations()) +
          static_cast<int64_t>(shard->pending_adoptions());
      report.shard_counters.push_back(counters);
      shard->committed_digests().ForEach(
          [&](const seve::SeqNum& pos, const auto& digest) {
            sharded_authority[pos] = digest;
          });
      busy_us += shard->cpu_busy_us();
    }
    authority = &sharded_authority;
    report.shard_imbalance_windows = imbalance_windows;
    if (!imbalance_windows.empty()) {
      report.load_imbalance_first = imbalance_windows.front();
      report.load_imbalance_last = imbalance_windows.back();
    }
    report.migration_moves_planned = moves_planned;
  }
  report.total_traffic = net.TotalTraffic();
  report.wire_audit = net.wire_audit();
  report.wire_verify_failures = net.wire_verify_failures();
  const double client_bytes =
      static_cast<double>(report.total_traffic.total_bytes() -
                          report.server_traffic.total_bytes());
  report.per_client_kb = client_bytes / std::max(1, s.num_clients) / 1024.0;
  report.avg_visible_avatars =
      visible_samples == 0
          ? 0.0
          : visible_sum / static_cast<double>(visible_samples);
  report.drop_rate = report.server_stats.DropRate();
  {
    ScopedSpan span(tracer, SpanKind::kAudit);
    report.consistency = seve::CheckDigestConsistency(*authority, replicas);
  }
  {
    ScopedSpan span(tracer, SpanKind::kDigest);
    report.client_state_digests.reserve(clients.size());
    for (const auto& client : clients) {
      report.client_state_digests.push_back(client->stable().Digest());
    }
    report.final_state_digest = observer().Digest();
  }
  if (s.reliable_transport) {
    for (const auto& client : clients) {
      if (client->reliable_channel() != nullptr) {
        report.client_stats.channel.Merge(client->reliable_channel()->stats());
      }
    }
    if (server != nullptr) {
      if (server->reliable_channel() != nullptr) {
        report.server_stats.channel.Merge(server->reliable_channel()->stats());
      }
    } else {
      for (const auto& shard : shards) {
        if (shard->reliable_channel() != nullptr) {
          report.server_stats.channel.Merge(shard->reliable_channel()->stats());
        }
      }
    }
  }
  {
    ScopedSpan span(tracer, SpanKind::kDigest);
    out->digest = seve::DigestReport(report);
  }

  // ---- Harness-only observations --------------------------------------------
  const seve::ObjectSetCounters& store_after = seve::GetObjectSetCounters();
  out->intersect_calls =
      store_after.intersect_calls - store_before.intersect_calls;
  out->sig_rejects = store_after.sig_rejects - store_before.sig_rejects;
  out->walls_checked = walls_checked;
  out->uncommitted_mean =
      hooks.samples == 0 ? 0.0
                         : static_cast<double>(hooks.sum) /
                               static_cast<double>(hooks.samples);
  out->uncommitted_peak = hooks.peak;
  const size_t serializers = server != nullptr ? 1 : shards.size();
  out->server_busy_pct =
      report.end_time <= 0
          ? 0.0
          : 100.0 * static_cast<double>(busy_us) /
                (static_cast<double>(report.end_time) *
                 static_cast<double>(serializers));
  uint64_t folds = 0;
  for (const auto& client : clients) {
    folds += client->stable().digest_folds() +
             client->optimistic().digest_folds();
    if (client->rejoining()) ++out->stranded_clients;
  }
  if (server != nullptr) folds += server->authoritative().digest_folds();
  for (const auto& shard : shards) {
    folds += shard->authoritative().digest_folds();
  }
  out->digest_folds = folds;
  return true;
}

}  // namespace perfbench
