#include "sim/runner.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "baseline/broadcast.h"
#include "baseline/zoned.h"
#include "baseline/central.h"
#include "baseline/ring.h"
#include "common/inline_function.h"
#include "common/rng.h"
#include "net/channel.h"
#include "net/network.h"
#include "protocol/basic_client.h"
#include "protocol/basic_server.h"
#include "protocol/interest.h"
#include "protocol/lock_protocol.h"
#include "protocol/occ_protocol.h"
#include "protocol/seve_client.h"
#include "protocol/seve_server.h"
#include "shard/rebalancer.h"
#include "shard/shard_map.h"
#include "shard/shard_server.h"
#include "world/attrs.h"

namespace seve {
namespace {

/// Uniform handle over the per-architecture client types. Each member
/// captures a single client pointer, so InlineFunction keeps the whole
/// driver table allocation-free (std::function here would heap-allocate
/// three times per client).
struct ClientDriver {
  InlineFunction<16, void(ActionPtr)> submit;
  InlineFunction<16, const WorldState&()> view;
  /// The replica audited for convergence: the stable state where the
  /// architecture distinguishes it from the submission view.
  InlineFunction<16, const WorldState&()> stable_view;
  InlineFunction<16, const ProtocolStats&()> stats;
  const DigestMap* digests = nullptr;
};

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
                                  kAttrPosition)
                         .AsVec2();
  profile.radius = world.config().move_effect_range;
  profile.interest_class = 1;
  return profile;
}

}  // namespace

RunReport RunScenario(Architecture arch, const Scenario& scenario_in) {
  Scenario s = scenario_in;
  s.world.num_avatars = s.num_clients;
  // Workload zoo: staged spawns + scale knobs land in s.world before the
  // world is constructed.
  ApplyWorkload(&s);

  EventLoop loop;
  Network net(&loop, s.seed ^ 0x6e657477ULL);
  net.set_wire_mode(s.wire_mode);
  ManhattanWorld world(s.world, s.seed);

  // CPU price of evaluating an action: walls and avatars visible around
  // the action's location, or the fixed Figure-7 override.
  ActionCostFn cost_fn = [&s, &world](const Action& action,
                                      const WorldState& view) -> Micros {
    if (s.fixed_move_cost_us.has_value()) return *s.fixed_move_cost_us;
    return world.MoveCostAt(view, action.Interest().position, s.cost);
  };

  const LinkParams link = MakeLink(s);
  const Micros rtt_us = 2 * s.one_way_latency_us;

  // ---- Architecture-specific construction -------------------------------
  std::unique_ptr<SeveServer> seve_server;
  std::vector<std::unique_ptr<SeveClient>> seve_clients;
  std::unique_ptr<BasicServer> basic_server;
  std::vector<std::unique_ptr<BasicClient>> basic_clients;
  std::unique_ptr<CentralServer> central_server;
  std::vector<std::unique_ptr<CentralClient>> central_clients;
  std::unique_ptr<BroadcastServer> broadcast_server;
  std::vector<std::unique_ptr<BroadcastClient>> broadcast_clients;
  std::unique_ptr<RingServer> ring_server;
  std::vector<std::unique_ptr<RingClient>> ring_clients;
  std::unique_ptr<LockServer> lock_server;
  std::vector<std::unique_ptr<LockClient>> lock_clients;
  std::unique_ptr<OccServer> occ_server;
  std::vector<std::unique_ptr<OccClient>> occ_clients;
  std::unique_ptr<ZoneMap> zone_map;
  std::vector<std::unique_ptr<ZoneServer>> zone_servers;
  std::vector<std::unique_ptr<ZonedClient>> zoned_clients;
  std::unique_ptr<ShardMap> shard_map;
  std::vector<std::unique_ptr<SeveShardServer>> shard_servers;
  // Hoisted out of the kSeveSharded case: the migration schedule and the
  // rebalance tick below need shard node ids after construction.
  std::vector<NodeId> shard_nodes;
  // kSeveSharded observer/audit scratch: the merged view is rebuilt from
  // the shard partitions on demand, the authority map is the union of the
  // per-shard digest maps (global stamps never collide across shards).
  WorldState sharded_view;
  DigestMap sharded_authority;

  std::vector<ClientDriver> drivers(static_cast<size_t>(s.num_clients));
  InlineFunction<16> stop_and_flush = []() {};
  InlineFunction<16, const WorldState&()> observer;
  const DigestMap* authority = nullptr;
  Node* server_node = nullptr;
  ProtocolStats* server_stats = nullptr;

  // Every node joins the network through here so the reliable-transport
  // switch wraps clients and servers alike.
  auto add_node = [&](Node* node) {
    net.AddNode(node);
    if (s.reliable_transport) node->EnableReliableTransport(s.channel);
  };

  auto connect_client = [&](int i, Node* node) {
    add_node(node);
    net.ConnectBidirectional(ServerNode(), ClientNode(i), link);
    node->set_load_factor(s.client_load_factor);
  };

  // Initial replica for client i. sparse_replicas seeds only the client's
  // own avatar instead of a full world copy — a full replica per client is
  // O(clients^2) memory, untenable at the 100k-client sweeps. Digests stay
  // comparable as long as every compared arm uses the same setting.
  auto client_initial = [&](int i) -> WorldState {
    if (!s.workload.sparse_replicas) return world.InitialState();
    WorldState state;
    const Object* avatar =
        world.InitialState().Find(ManhattanWorld::AvatarId(i));
    if (avatar != nullptr) state.Upsert(*avatar);
    return state;
  };

  switch (arch) {
    case Architecture::kSeve:
    case Architecture::kSeveNoDropping:
    case Architecture::kIncompleteWorld: {
      SeveOptions opts = s.seve;
      if (arch == Architecture::kSeveNoDropping) opts.dropping = false;
      if (arch == Architecture::kIncompleteWorld) {
        opts.proactive_push = false;
        opts.dropping = false;
      }
      InterestModel interest(s.world.speed, rtt_us, opts.omega,
                             opts.velocity_culling, opts.interest_classes);
      seve_server = std::make_unique<SeveServer>(
          ServerNode(), &loop, world.InitialState(), s.cost, interest, opts,
          s.world.bounds);
      add_node(seve_server.get());
      for (int i = 0; i < s.num_clients; ++i) {
        auto client = std::make_unique<SeveClient>(
            ClientNode(i), &loop, ClientId(static_cast<uint64_t>(i)),
            ServerNode(), client_initial(i), cost_fn, s.cost.install_us,
            opts);
        connect_client(i, client.get());
        seve_server->RegisterClient(client->client_id(), ClientNode(i),
                                    InitialProfile(world, i));
        SeveClient* raw = client.get();
        drivers[static_cast<size_t>(i)] = ClientDriver{
            [raw](ActionPtr a) { raw->SubmitLocalAction(std::move(a)); },
            [raw]() -> const WorldState& { return raw->optimistic(); },
            [raw]() -> const WorldState& { return raw->stable(); },
            [raw]() -> const ProtocolStats& { return raw->stats(); },
            &raw->eval_digests()};
        seve_clients.push_back(std::move(client));
      }
      seve_server->Start();
      // Background reconciliation (no-op unless delta_sync and a period
      // are configured).
      for (auto& client : seve_clients) client->StartAntiEntropy();
      authority = &seve_server->committed_digests();
      server_node = seve_server.get();
      server_stats = &seve_server->stats();
      observer = [&srv = *seve_server]() -> const WorldState& {
        return srv.authoritative();
      };
      stop_and_flush = [&srv = *seve_server, &clients = seve_clients]() {
        srv.Stop();
        // Disarm the self-rescheduling sync timers or the loop never
        // drains.
        for (auto& client : clients) client->StopSync();
        srv.FlushAll();
      };
      break;
    }
    case Architecture::kBasic: {
      basic_server = std::make_unique<BasicServer>(ServerNode(), &loop,
                                                   s.cost.serialize_us);
      add_node(basic_server.get());
      for (int i = 0; i < s.num_clients; ++i) {
        auto client = std::make_unique<BasicClient>(
            ClientNode(i), &loop, ClientId(static_cast<uint64_t>(i)),
            ServerNode(), world.InitialState(), cost_fn, s.cost.install_us);
        connect_client(i, client.get());
        basic_server->RegisterClient(client->client_id(), ClientNode(i));
        BasicClient* raw = client.get();
        drivers[static_cast<size_t>(i)] = ClientDriver{
            [raw](ActionPtr a) { raw->SubmitLocalAction(std::move(a)); },
            [raw]() -> const WorldState& { return raw->optimistic(); },
            [raw]() -> const WorldState& { return raw->stable(); },
            [raw]() -> const ProtocolStats& { return raw->stats(); },
            &raw->eval_digests()};
        basic_clients.push_back(std::move(client));
      }
      server_node = basic_server.get();
      server_stats = &basic_server->stats();
      observer = [&clients = basic_clients]() -> const WorldState& {
        return clients.front()->stable();
      };
      stop_and_flush = [&srv = *basic_server]() { srv.FlushAll(); };
      break;
    }
    case Architecture::kCentral: {
      central_server = std::make_unique<CentralServer>(
          ServerNode(), &loop, world.InitialState(), s.cost, cost_fn,
          s.world.visibility);
      add_node(central_server.get());
      for (int i = 0; i < s.num_clients; ++i) {
        auto client = std::make_unique<CentralClient>(
            ClientNode(i), &loop, ClientId(static_cast<uint64_t>(i)),
            ServerNode(), world.InitialState(), s.cost.install_us);
        connect_client(i, client.get());
        central_server->RegisterClient(client->client_id(), ClientNode(i));
        CentralClient* raw = client.get();
        drivers[static_cast<size_t>(i)] = ClientDriver{
            [raw](ActionPtr a) { raw->SubmitLocalAction(std::move(a)); },
            [raw]() -> const WorldState& { return raw->view(); },
            [raw]() -> const WorldState& { return raw->view(); },
            [raw]() -> const ProtocolStats& { return raw->stats(); },
            nullptr};
        central_clients.push_back(std::move(client));
      }
      authority = &central_server->committed_digests();
      server_node = central_server.get();
      server_stats = &central_server->stats();
      observer = [&srv = *central_server]() -> const WorldState& {
        return srv.state();
      };
      break;
    }
    case Architecture::kBroadcast: {
      broadcast_server =
          std::make_unique<BroadcastServer>(ServerNode(), &loop, s.cost);
      add_node(broadcast_server.get());
      for (int i = 0; i < s.num_clients; ++i) {
        auto client = std::make_unique<BroadcastClient>(
            ClientNode(i), &loop, ClientId(static_cast<uint64_t>(i)),
            ServerNode(), world.InitialState(), cost_fn);
        connect_client(i, client.get());
        broadcast_server->RegisterClient(client->client_id(), ClientNode(i));
        BroadcastClient* raw = client.get();
        drivers[static_cast<size_t>(i)] = ClientDriver{
            [raw](ActionPtr a) { raw->SubmitLocalAction(std::move(a)); },
            [raw]() -> const WorldState& { return raw->state(); },
            [raw]() -> const WorldState& { return raw->state(); },
            [raw]() -> const ProtocolStats& { return raw->stats(); },
            &raw->eval_digests()};
        broadcast_clients.push_back(std::move(client));
      }
      server_node = broadcast_server.get();
      server_stats = &broadcast_server->stats();
      observer = [&clients = broadcast_clients]() -> const WorldState& {
        return clients.front()->state();
      };
      break;
    }
    case Architecture::kRing: {
      ring_server = std::make_unique<RingServer>(
          ServerNode(), &loop, s.cost, s.world.visibility, s.world.bounds);
      add_node(ring_server.get());
      for (int i = 0; i < s.num_clients; ++i) {
        auto client = std::make_unique<RingClient>(
            ClientNode(i), &loop, ClientId(static_cast<uint64_t>(i)),
            ServerNode(), world.InitialState(), cost_fn);
        connect_client(i, client.get());
        ring_server->RegisterClient(client->client_id(), ClientNode(i),
                                    InitialProfile(world, i).position);
        RingClient* raw = client.get();
        drivers[static_cast<size_t>(i)] = ClientDriver{
            [raw](ActionPtr a) { raw->SubmitLocalAction(std::move(a)); },
            [raw]() -> const WorldState& { return raw->state(); },
            [raw]() -> const WorldState& { return raw->state(); },
            [raw]() -> const ProtocolStats& { return raw->stats(); },
            &raw->eval_digests()};
        ring_clients.push_back(std::move(client));
      }
      server_node = ring_server.get();
      server_stats = &ring_server->stats();
      observer = [&clients = ring_clients]() -> const WorldState& {
        return clients.front()->state();
      };
      break;
    }
    case Architecture::kLockBased: {
      lock_server = std::make_unique<LockServer>(ServerNode(), &loop,
                                                 world.InitialState(),
                                                 s.cost);
      add_node(lock_server.get());
      for (int i = 0; i < s.num_clients; ++i) {
        auto client = std::make_unique<LockClient>(
            ClientNode(i), &loop, ClientId(static_cast<uint64_t>(i)),
            ServerNode(), world.InitialState(), cost_fn, s.cost.install_us);
        connect_client(i, client.get());
        lock_server->RegisterClient(client->client_id(), ClientNode(i));
        LockClient* raw = client.get();
        drivers[static_cast<size_t>(i)] = ClientDriver{
            [raw](ActionPtr a) { raw->SubmitLocalAction(std::move(a)); },
            [raw]() -> const WorldState& { return raw->state(); },
            [raw]() -> const WorldState& { return raw->state(); },
            [raw]() -> const ProtocolStats& { return raw->stats(); },
            &raw->eval_digests()};
        lock_clients.push_back(std::move(client));
      }
      authority = &lock_server->committed_digests();
      server_node = lock_server.get();
      server_stats = &lock_server->stats();
      observer = [&srv = *lock_server]() -> const WorldState& {
        return srv.state();
      };
      break;
    }
    case Architecture::kTimestampOcc: {
      occ_server = std::make_unique<OccServer>(ServerNode(), &loop,
                                               world.InitialState(), s.cost);
      add_node(occ_server.get());
      for (int i = 0; i < s.num_clients; ++i) {
        auto client = std::make_unique<OccClient>(
            ClientNode(i), &loop, ClientId(static_cast<uint64_t>(i)),
            ServerNode(), world.InitialState(), cost_fn, s.cost.install_us);
        connect_client(i, client.get());
        occ_server->RegisterClient(client->client_id(), ClientNode(i));
        OccClient* raw = client.get();
        drivers[static_cast<size_t>(i)] = ClientDriver{
            [raw](ActionPtr a) { raw->SubmitLocalAction(std::move(a)); },
            [raw]() -> const WorldState& { return raw->state(); },
            [raw]() -> const WorldState& { return raw->state(); },
            [raw]() -> const ProtocolStats& { return raw->stats(); },
            &raw->eval_digests()};
        occ_clients.push_back(std::move(client));
      }
      authority = &occ_server->committed_digests();
      server_node = occ_server.get();
      server_stats = &occ_server->stats();
      observer = [&srv = *occ_server]() -> const WorldState& {
        return srv.state();
      };
      break;
    }
    case Architecture::kZoned: {
      zone_map = std::make_unique<ZoneMap>(s.world.bounds,
                                           s.zones_per_side);
      // Zone server node ids live above the client id range.
      std::vector<NodeId> zone_nodes;
      for (int z = 0; z < zone_map->zone_count(); ++z) {
        const NodeId node_id(100000 + static_cast<uint64_t>(z));
        auto server = std::make_unique<ZoneServer>(
            node_id, &loop, z, world.InitialState(), s.cost, cost_fn,
            s.world.visibility);
        add_node(server.get());
        zone_nodes.push_back(node_id);
        zone_servers.push_back(std::move(server));
      }
      for (int i = 0; i < s.num_clients; ++i) {
        auto client = std::make_unique<ZonedClient>(
            ClientNode(i), &loop, ClientId(static_cast<uint64_t>(i)),
            zone_map.get(), zone_nodes, world.InitialState(),
            s.cost.install_us);
        add_node(client.get());
        client->set_load_factor(s.client_load_factor);
        for (const NodeId zone_node : zone_nodes) {
          net.ConnectBidirectional(zone_node, ClientNode(i), link);
        }
        for (auto& server : zone_servers) {
          server->RegisterClient(client->client_id(), ClientNode(i));
        }
        ZonedClient* raw = client.get();
        drivers[static_cast<size_t>(i)] = ClientDriver{
            [raw](ActionPtr a) { raw->SubmitLocalAction(std::move(a)); },
            [raw]() -> const WorldState& { return raw->view(); },
            [raw]() -> const WorldState& { return raw->view(); },
            [raw]() -> const ProtocolStats& { return raw->stats(); },
            nullptr};
        zoned_clients.push_back(std::move(client));
      }
      server_node = zone_servers.front().get();
      server_stats = &zone_servers.front()->stats();
      observer = [&clients = zoned_clients]() -> const WorldState& {
        return clients.front()->view();
      };
      break;
    }
    case Architecture::kSeveSharded: {
      // Each shard is an Incomplete-World server over its partition;
      // pushing/dropping stay off exactly as in kIncompleteWorld, so a
      // 1-shard run degenerates to the single server behind global stamps.
      SeveOptions opts = s.seve;
      opts.proactive_push = false;
      opts.dropping = false;
      shard_map = std::make_unique<ShardMap>(s.world.bounds, s.shards,
                                             world.InitialState());
      InterestModel interest(s.world.speed, rtt_us, opts.omega,
                             opts.velocity_culling, opts.interest_classes);
      // Shard server node ids live above the zoned baseline's range
      // (kShardNodeIdBase in shard/shard_map.h).
      for (ShardId sh = 0; sh < shard_map->shard_count(); ++sh) {
        const NodeId node_id = ShardServerNode(sh);
        auto server = std::make_unique<SeveShardServer>(
            node_id, &loop, sh, shard_map.get(), world.InitialState(),
            interest, s.cost, opts);
        add_node(server.get());
        shard_nodes.push_back(node_id);
        shard_servers.push_back(std::move(server));
      }
      // Full shard mesh: every pair gets a link and every server knows
      // every peer's node id (prepare/token/commit/abort routing).
      for (size_t a = 0; a < shard_nodes.size(); ++a) {
        for (size_t b = a + 1; b < shard_nodes.size(); ++b) {
          net.ConnectBidirectional(shard_nodes[a], shard_nodes[b], link);
        }
        for (size_t b = 0; b < shard_nodes.size(); ++b) {
          shard_servers[a]->RegisterPeer(static_cast<ShardId>(b),
                                         shard_nodes[b]);
        }
      }
      for (int i = 0; i < s.num_clients; ++i) {
        // A client connects only to the shard that owns its avatar; all
        // cross-shard work happens server-side via the commit protocol.
        const ShardId home =
            shard_map->ShardOfObject(ManhattanWorld::AvatarId(i));
        const NodeId home_node = shard_nodes[static_cast<size_t>(home)];
        auto client = std::make_unique<SeveClient>(
            ClientNode(i), &loop, ClientId(static_cast<uint64_t>(i)),
            home_node, client_initial(i), cost_fn, s.cost.install_us,
            opts);
        add_node(client.get());
        client->set_load_factor(s.client_load_factor);
        net.ConnectBidirectional(home_node, ClientNode(i), link);
        shard_servers[static_cast<size_t>(home)]->RegisterClient(
            client->client_id(), ClientNode(i), ManhattanWorld::AvatarId(i),
            InitialProfile(world, i));
        SeveClient* raw = client.get();
        drivers[static_cast<size_t>(i)] = ClientDriver{
            [raw](ActionPtr a) { raw->SubmitLocalAction(std::move(a)); },
            [raw]() -> const WorldState& { return raw->optimistic(); },
            [raw]() -> const WorldState& { return raw->stable(); },
            [raw]() -> const ProtocolStats& { return raw->stats(); },
            &raw->eval_digests()};
        seve_clients.push_back(std::move(client));
      }
      // Background reconciliation: client<->home-shard replica repair and
      // the shard-pair ownership-view ring (both no-ops unless their
      // periods are configured).
      for (auto& client : seve_clients) client->StartAntiEntropy();
      for (auto& server : shard_servers) server->StartAntiEntropy();
      server_node = shard_servers.front().get();
      server_stats = &shard_servers.front()->stats();
      stop_and_flush = [&servers = shard_servers,
                        &clients = seve_clients]() {
        // Disarm the self-rescheduling sync timers or the loop never
        // drains.
        for (auto& server : servers) server->StopAntiEntropy();
        for (auto& client : clients) client->StopSync();
      };
      observer = [&view = sharded_view,
                  &servers = shard_servers]() -> const WorldState& {
        view = WorldState{};
        for (const auto& srv : servers) {
          const WorldState& part = srv->authoritative();
          for (const ObjectId id : part.ObjectIds()) {
            view.Upsert(*part.Find(id));
          }
        }
        return view;
      };
      break;
    }
  }

  // ---- Crash/rejoin schedule --------------------------------------------
  // SEVE clients run the real recovery protocol (snapshot catch-up); the
  // baselines just stop/resume receiving, which is what they'd do anyway.
  const bool seve_recovery = arch == Architecture::kSeve ||
                             arch == Architecture::kSeveNoDropping ||
                             arch == Architecture::kIncompleteWorld ||
                             arch == Architecture::kSeveSharded;
  for (const Scenario::FailureEvent& f : s.failures) {
    if (f.client < 0 || f.client >= s.num_clients) continue;
    const int c = f.client;
    loop.At(f.fail_at_us, [&, c]() {
      if (seve_recovery) {
        seve_clients[static_cast<size_t>(c)]->Fail();
      } else {
        net.FindNode(ClientNode(c))->set_failed(true);
      }
    });
    if (f.rejoin_at_us > f.fail_at_us) {
      loop.At(f.rejoin_at_us, [&, c]() {
        if (seve_recovery) {
          seve_clients[static_cast<size_t>(c)]->Rejoin();
        } else {
          net.FindNode(ClientNode(c))->set_failed(false);
        }
      });
    }
  }

  // ---- Ownership-migration schedule (kSeveSharded) ------------------------
  // Explicit handoffs from the scenario; the rebalancer below generates
  // the load-driven ones. Destination<->client links are created lazily —
  // an up-front all-pairs mesh would be O(clients x shards) links.
  VirtualTime last_migration = 0;
  if (arch == Architecture::kSeveSharded) {
    for (const Scenario::MigrationEvent& m : s.migrations) {
      if (m.client < 0 || m.client >= s.num_clients) continue;
      if (m.to_shard < 0 ||
          m.to_shard >= static_cast<int>(shard_servers.size())) {
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
        shard_servers[static_cast<size_t>(from)]->StartMigration(avatar, to);
      });
    }
  }

  // ---- Drive the move streams -------------------------------------------
  Rng gen_rng(s.seed ^ 0x67656e);
  VirtualTime last_submission = 0;
  for (int i = 0; i < s.num_clients; ++i) {
    const VirtualTime start = static_cast<VirtualTime>(
        gen_rng.NextBounded(static_cast<uint64_t>(s.move_period_us)));
    for (int k = 0; k < s.moves_per_client; ++k) {
      const VirtualTime when = start + static_cast<VirtualTime>(k) *
                                           s.move_period_us;
      last_submission = std::max(last_submission, when);
      loop.At(when, [&, i, k]() {
        const ActionId id((static_cast<uint64_t>(i) << 32) |
                          static_cast<uint64_t>(k));
        const Tick tick = loop.now() / s.seve.tick_us;
        ClientDriver& driver = drivers[static_cast<size_t>(i)];
        driver.submit(world.MakeMove(id, ClientId(static_cast<uint64_t>(i)),
                                     i, tick, driver.view(),
                                     s.move_period_us));
      });
    }
  }

  // ---- Visibility sampling (Figure 8 x-axis) -----------------------------
  double visible_sum = 0.0;
  int64_t visible_samples = 0;
  const Micros sample_period = 500 * kMicrosPerMilli;
  // Self-rescheduling sampler: the loop holds only a thin wrapper around
  // `sample` (InlineFunction is move-only, so the callable itself cannot
  // be copied into the scheduler the way a std::function could).
  InlineFunction<96> sample = [&]() {
    if (loop.now() > last_submission) return;
    const WorldState& state = observer();
    for (int i = 0; i < s.num_clients; ++i) {
      const ObjectId avatar = ManhattanWorld::AvatarId(i);
      const Vec2 pos = state.GetAttr(avatar, kAttrPosition).AsVec2();
      visible_sum += world.CountAvatarsNear(state, pos, s.world.visibility,
                                            avatar);
      ++visible_samples;
    }
    loop.After(sample_period, [&sample]() { sample(); });
  };
  // The sampler is O(clients²) per tick; the six-figure workloads turn it
  // off (avg_visible_avatars then reports 0).
  if (s.workload.sample_visibility) {
    loop.After(sample_period, [&sample]() { sample(); });
  }

  // ---- Shard load sampling + rebalancing (kSeveSharded) -------------------
  // Runs every rebalance period even when rebalancing is disabled, so
  // static runs still report their load-imbalance series for comparison.
  std::vector<double> imbalance_windows;
  int64_t moves_planned = 0;
  std::vector<int64_t> prev_submits(shard_servers.size(), 0);
  int64_t prev_migrations_out = 0;
  InlineFunction<128> rebalance_tick = [&]() {
    // Imbalance sample: max/mean of the per-shard queue-depth peaks over
    // the window that just ended. All-idle windows carry no signal.
    // Sampling happens even on the final tick past last_submission, so
    // the series ends on the post-burst steady state, not mid-handoff.
    std::vector<int64_t> peaks;
    peaks.reserve(shard_servers.size());
    int64_t peak_sum = 0;
    int64_t peak_max = 0;
    for (const auto& shard : shard_servers) {
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
    // Past the last scheduled submission there is nothing left to plan
    // for; stop rescheduling so the loop can drain to idle.
    if (loop.now() > last_submission) return;
    // Planning load = submit-count delta over the window: unlike the
    // queue peak it carries no drain backlog from before an earlier
    // handoff burst, so it tracks ownership, not history. A window that
    // overlapped a burst (commits landed, or handoffs still in flight)
    // splits rehomed clients' arrivals across two shards — skip planning
    // on such poisoned samples and wait for one clean window.
    std::vector<int64_t> arrivals(shard_servers.size(), 0);
    int64_t migrations_out = 0;
    int64_t in_flight = 0;
    for (size_t sh = 0; sh < shard_servers.size(); ++sh) {
      const int64_t submits = shard_servers[sh]->counters().submits;
      arrivals[sh] = submits - prev_submits[sh];
      prev_submits[sh] = submits;
      migrations_out += shard_servers[sh]->counters().migrations_out;
      in_flight +=
          static_cast<int64_t>(shard_servers[sh]->pending_migrations()) +
          static_cast<int64_t>(shard_servers[sh]->pending_adoptions());
    }
    const bool poisoned =
        migrations_out != prev_migrations_out || in_flight != 0;
    prev_migrations_out = migrations_out;
    if (s.rebalance.enabled && !poisoned && peak_sum > 0) {
      // Movable sets scanned in ascending client index = ascending avatar
      // object id, which pins the rebalancer's candidate order.
      std::vector<std::vector<ObjectId>> movable(shard_servers.size());
      for (int i = 0; i < s.num_clients; ++i) {
        const ObjectId avatar = ManhattanWorld::AvatarId(i);
        const ShardId owner = shard_map->ShardOfObject(avatar);
        movable[static_cast<size_t>(owner)].push_back(avatar);
      }
      std::vector<ShardLoad> loads;
      loads.reserve(shard_servers.size());
      for (size_t sh = 0; sh < shard_servers.size(); ++sh) {
        loads.push_back(
            ShardLoad{static_cast<ShardId>(sh), arrivals[sh],
                      static_cast<int64_t>(movable[sh].size())});
      }
      RebalancePolicy policy;
      policy.headroom = s.rebalance.headroom;
      policy.max_moves = s.rebalance.max_moves_per_epoch;
      const std::vector<MigrationMove> moves =
          PlanRebalance(loads, movable, policy);
      moves_planned += static_cast<int64_t>(moves.size());
      for (const MigrationMove& mv : moves) {
        // AvatarId(i) = ObjectId(i + 1), so the owning client index is
        // recoverable for the lazy destination link.
        const int c = static_cast<int>(mv.object.value()) - 1;
        net.ConnectBidirectional(shard_nodes[static_cast<size_t>(mv.to)],
                                 ClientNode(c), link);
        shard_servers[static_cast<size_t>(mv.from)]->StartMigration(mv.object,
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

  // ---- Run to quiescence --------------------------------------------------
  const Micros push_period =
      static_cast<Micros>(s.seve.omega * static_cast<double>(rtt_us));
  VirtualTime last_activity = last_submission;
  last_activity = std::max(last_activity, last_migration);
  for (const Scenario::FailureEvent& f : s.failures) {
    last_activity = std::max(last_activity,
                             std::max(f.fail_at_us, f.rejoin_at_us));
  }
  Micros drain_slack = 100 * kMicrosPerMilli;
  if (s.reliable_transport) {
    // Retransmission chains must complete before the servers stop ticking,
    // or a late-arriving frame misses the final flush and the lossy run
    // diverges from the lossless one. Budget several walks up the backoff
    // ladder (virtual time is cheap; the loop idles through the gaps).
    drain_slack += 8 * s.channel.initial_rto_us + 2 * s.channel.max_rto_us;
  }
  loop.RunUntil(last_activity + s.one_way_latency_us + s.seve.tick_us +
                push_period + drain_slack);
  stop_and_flush();
  loop.RunUntilIdle(s.max_drain_events);

  // ---- Collect -------------------------------------------------------------
  RunReport report;
  report.architecture = arch;
  report.num_clients = s.num_clients;
  report.end_time = loop.now();
  report.events_run = loop.events_run();

  std::vector<const DigestMap*> replicas;
  for (int i = 0; i < s.num_clients; ++i) {
    const ClientDriver& driver = drivers[static_cast<size_t>(i)];
    const ProtocolStats& stats = driver.stats();
    report.client_stats.Merge(stats);
    report.response_us.Merge(stats.response_time_us);
    if (driver.digests != nullptr) replicas.push_back(driver.digests);
  }
  if (server_stats != nullptr) report.server_stats = *server_stats;
  report.server_traffic = server_node->traffic();
  if (arch == Architecture::kZoned) {
    // Aggregate across all zone servers (the "server side" is a fleet).
    report.server_stats = ProtocolStats{};
    report.server_traffic = TrafficStats{};
    for (const auto& zone : zone_servers) {
      report.server_stats.Merge(zone->stats());
      report.server_traffic.Merge(zone->traffic());
    }
  }
  if (arch == Architecture::kSeveSharded) {
    // Same fleet aggregation, plus the per-shard commit counters and the
    // unioned authority digest map for the consistency audit.
    report.server_stats = ProtocolStats{};
    report.server_traffic = TrafficStats{};
    for (const auto& shard : shard_servers) {
      report.server_stats.Merge(shard->stats());
      report.server_traffic.Merge(shard->traffic());
      ShardCounters counters = shard->counters();
      // Leaked handoffs (never committed nor aborted) surface here; the
      // CI gate asserts this stays 0.
      counters.migrations_pending =
          static_cast<int64_t>(shard->pending_migrations()) +
          static_cast<int64_t>(shard->pending_adoptions());
      report.shard_counters.push_back(counters);
      shard->committed_digests().ForEach(
          [&](const SeqNum& pos, const auto& digest) {
            sharded_authority[pos] = digest;
          });
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
  report.per_client_kb =
      client_bytes / std::max(1, s.num_clients) / 1024.0;
  report.avg_visible_avatars =
      visible_samples == 0 ? 0.0
                           : visible_sum /
                                 static_cast<double>(visible_samples);
  report.drop_rate = report.server_stats.DropRate();

  static const DigestMap kEmpty;
  report.consistency = CheckDigestConsistency(
      authority != nullptr ? *authority : kEmpty, replicas);

  report.client_state_digests.reserve(static_cast<size_t>(s.num_clients));
  for (int i = 0; i < s.num_clients; ++i) {
    report.client_state_digests.push_back(
        drivers[static_cast<size_t>(i)].stable_view().Digest());
  }
  report.final_state_digest = observer().Digest();

  if (s.reliable_transport) {
    // Channel counters live on the nodes, not in ProtocolStats; fold them
    // in here (after the kZoned re-aggregation, which resets the structs).
    for (int i = 0; i < s.num_clients; ++i) {
      const Node* node = net.FindNode(ClientNode(i));
      if (node != nullptr && node->reliable_channel() != nullptr) {
        report.client_stats.channel.Merge(node->reliable_channel()->stats());
      }
    }
    if (arch == Architecture::kZoned) {
      for (const auto& zone : zone_servers) {
        if (zone->reliable_channel() != nullptr) {
          report.server_stats.channel.Merge(
              zone->reliable_channel()->stats());
        }
      }
    } else if (arch == Architecture::kSeveSharded) {
      for (const auto& shard : shard_servers) {
        if (shard->reliable_channel() != nullptr) {
          report.server_stats.channel.Merge(
              shard->reliable_channel()->stats());
        }
      }
    } else if (server_node->reliable_channel() != nullptr) {
      report.server_stats.channel.Merge(
          server_node->reliable_channel()->stats());
    }
  }
  return report;
}

}  // namespace seve
