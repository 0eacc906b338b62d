// Section V-B.1 capacity claim: "We performed experiments on a single
// server and determined the limit of our implementation to be about 3500
// clients."
//
// The SEVE server only timestamps, routes (Equation-1 tests over a
// spatial index) and computes transitive closures — here we stress it
// with lightweight clients (one private counter each, uniform spread) and
// report server CPU utilisation and response degradation as the client
// count grows. The knee marks the single-server capacity.
//
// The XL regime extends the sweep to a 100,000-avatar single shard
// (DESIGN.md §13): a spectator-heavy population where only a small
// mover district is active at any instant, short links, and tight
// interest radii. Each XL point also crashes and rejoins a mover, so its
// 100k-object snapshot streams through the catch-up pacer mid-run.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "net/network.h"
#include "protocol/seve_client.h"
#include "protocol/seve_server.h"
#include "sim/sweep.h"
#include "tests/test_actions.h"

namespace seve {
namespace {

struct CapacityConfig {
  int clients = 0;
  int movers = 0;  // active submitters; == clients in the classic regime
  int moves = 0;
  bool xl = false;  // 100k single-shard regime
};

struct CapacityPoint {
  CapacityConfig config;
  double server_busy_pct = 0.0;
  double mean_response_ms = 0.0;
  double p95_response_ms = 0.0;
  double wall_seconds = 0.0;
  // ObjectSet signature decisions and incremental-digest activity in the
  // authoritative store (real work, not simulated cost).
  uint64_t intersect_calls = 0;
  uint64_t sig_rejects = 0;
  uint64_t digest_folds = 0;
  uint64_t digest_rescans = 0;
  // Server protocol, fan-out and sync counters: conflict-walk visits, the
  // dirty-list flush, and the XL rejoin's catch-up chunks and largest
  // per-tick batch (the pacer's enforced ceiling).
  ProtocolStats stats;
  bool rejoiner_caught_up = true;
};

CapacityPoint RunCapacity(const CapacityConfig& cfg) {
  // ObjectSet counters are thread_local and each capacity point runs
  // wholly inside one pool worker, so deltas here are this run's alone
  // (plus any earlier run on the same worker — hence before/after).
  const ObjectSetCounters set_before = GetObjectSetCounters();
  const Micros kLatency = cfg.xl ? 20000 : 119000;
  const Micros kRtt = 2 * kLatency;
  const Micros kPeriod = cfg.xl ? 500000 : 300000;
  const double kRadius = cfg.xl ? 1.0 : 10.0;

  EventLoop loop;
  Network net(&loop);
  SeveOptions opts;
  opts.proactive_push = true;
  opts.dropping = true;
  opts.threshold = 45.0;
  if (cfg.xl) {
    // Silence the CommitNotice broadcast so the (node-less) spectator
    // population stays silent.
    opts.commit_notice_period_us = 0;
  }
  InterestModel interest(10.0, kRtt, opts.omega);
  const AABB bounds{{0.0, 0.0}, {1000.0, 1000.0}};

  // Server starts with every client's counter object.
  WorldState server_state;
  for (int i = 0; i < cfg.clients; ++i) {
    server_state.SetAttr(ObjectId(static_cast<uint64_t>(i) + 1), 1,
                         Value(int64_t{0}));
  }
  SeveServer server(NodeId(0), &loop, std::move(server_state), CostModel{},
                    interest, opts, bounds);
  net.AddNode(&server);

  Rng rng(7);
  std::vector<std::unique_ptr<SeveClient>> clients;
  std::vector<InterestProfile> profiles;
  clients.reserve(static_cast<size_t>(cfg.movers));
  profiles.reserve(static_cast<size_t>(cfg.movers));
  for (int i = 0; i < cfg.movers; ++i) {
    const ObjectId counter(static_cast<uint64_t>(i) + 1);
    WorldState initial;
    initial.SetAttr(counter, 1, Value(int64_t{0}));
    auto client = std::make_unique<SeveClient>(
        NodeId(static_cast<uint64_t>(i) + 1), &loop,
        ClientId(static_cast<uint64_t>(i)), NodeId(0), std::move(initial),
        [](const Action&, const WorldState&) -> Micros { return 200; },
        /*install_us=*/10, opts);
    net.AddNode(client.get());
    net.ConnectBidirectional(NodeId(0), client->id(),
                             LinkParams::LatencyOnly(kLatency));
    // XL: movers pack into a 200x200 district; classic: uniform world.
    InterestProfile profile =
        cfg.xl ? ProfileAt({rng.NextDouble(5.0, 195.0),
                            rng.NextDouble(5.0, 195.0)},
                           kRadius)
               : ProfileAt({rng.NextDouble(0.0, 1000.0),
                            rng.NextDouble(0.0, 1000.0)},
                           kRadius);
    server.RegisterClient(client->client_id(), client->id(), profile);
    profiles.push_back(profile);
    clients.push_back(std::move(client));
  }
  // XL spectators: registered (slot + spatial-index + flush bookkeeping
  // all carry them) but idle and far from the mover district, so no
  // message ever targets them — they need no simulated node. This is the
  // population the dirty list must NOT scan.
  for (int i = cfg.movers; i < cfg.clients; ++i) {
    server.RegisterClient(
        ClientId(static_cast<uint64_t>(i)),
        NodeId(static_cast<uint64_t>(i) + 1'000'000),
        ProfileAt({rng.NextDouble(305.0, 995.0), rng.NextDouble(5.0, 995.0)},
                  kRadius));
  }
  server.Start();

  Rng jitter(13);
  VirtualTime last = 0;
  for (int i = 0; i < cfg.movers; ++i) {
    const VirtualTime start = static_cast<VirtualTime>(
        jitter.NextBounded(static_cast<uint64_t>(kPeriod)));
    SeveClient* client = clients[static_cast<size_t>(i)].get();
    const ObjectId counter(static_cast<uint64_t>(i) + 1);
    for (int k = 0; k < cfg.moves; ++k) {
      const VirtualTime when = start + static_cast<VirtualTime>(k) * kPeriod;
      last = std::max(last, when);
      const InterestProfile profile = profiles[static_cast<size_t>(i)];
      loop.At(when, [client, counter, i, k, profile]() {
        client->SubmitLocalAction(std::make_shared<CounterAdd>(
            ActionId((static_cast<uint64_t>(i) << 32) |
                     static_cast<uint64_t>(k)),
            client->client_id(), counter, 1, profile));
      });
    }
  }
  // XL: crash one mover early and rejoin it mid-run, so the paced
  // catch-up (a 100k-object snapshot, 64 chunks per tick) pumps while the
  // shard is live — the regime the pacer exists for.
  if (cfg.xl && !clients.empty()) {
    SeveClient* rejoiner = clients.front().get();
    loop.At(300'000, [rejoiner]() { rejoiner->Fail(); });
    loop.At(1'000'000, [rejoiner]() { rejoiner->Rejoin(); });
  }
  // Every action carries its client's (fixed) interest profile, so the
  // spatial routing only tests genuinely nearby clients. XL keeps the
  // server running through an idle tail: a live shard push-cycles
  // whether or not anyone moved, which is exactly where the dirty list
  // pays off.
  loop.RunUntil(last + kRtt + (cfg.xl ? 1'800'000 : 300'000));
  // Read the rejoiner before teardown: FlushAll drains any still-queued
  // catch-up in one burst (deliberately uncounted), so "caught up by end
  // of run" is only meaningful here.
  const bool rejoiner_caught_up =
      clients.empty() || !clients.front()->rejoining();
  server.Stop();
  loop.RunUntilIdle(100'000'000);
  server.FlushAll();
  loop.RunUntilIdle(100'000'000);

  Histogram responses;
  for (const auto& client : clients) {
    responses.Merge(client->stats().response_time_us);
  }
  const double wall = static_cast<double>(loop.now());
  CapacityPoint point;
  point.config = cfg;
  point.server_busy_pct =
      100.0 * static_cast<double>(server.cpu_busy_us()) / wall;
  point.mean_response_ms = responses.Mean() / 1000.0;
  point.p95_response_ms = static_cast<double>(responses.P95()) / 1000.0;
  const ObjectSetCounters& set_after = GetObjectSetCounters();
  point.intersect_calls = set_after.intersect_calls - set_before.intersect_calls;
  point.sig_rejects = set_after.sig_rejects - set_before.sig_rejects;
  point.digest_folds = server.authoritative().digest_folds();
  point.digest_rescans = server.authoritative().digest_rescans();
  point.stats = server.stats();
  point.rejoiner_caught_up = rejoiner_caught_up;
  return point;
}

int MoversFor(int clients) {
  // Spectator-heavy town square: ~2% of the shard population is active
  // at any moment, capped so the submission stream stays bounded.
  return std::max(64, std::min(1000, clients / 50));
}

int AvatarsArg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--avatars") == 0 && i + 1 < argc) {
      return std::max(1, std::atoi(argv[i + 1]));
    }
    if (std::strncmp(argv[i], "--avatars=", 10) == 0) {
      return std::max(1, std::atoi(argv[i] + 10));
    }
  }
  return 0;
}

}  // namespace
}  // namespace seve

int main(int argc, char** argv) {
  using namespace seve;
  bench::Banner(
      "Section V-B capacity - SEVE single-server client limit",
      "Server saturates around ~3500 clients (it only serializes, routes "
      "and computes closures)");

  const bool quick = bench::QuickMode(argc, argv);
  const int num_jobs = bench::JobsArg(argc, argv);
  const int avatars_only = AvatarsArg(argc, argv);

  std::vector<CapacityConfig> configs;
  if (avatars_only > 0) {
    // Perf-smoke mode: one XL population.
    configs.push_back({avatars_only, MoversFor(avatars_only), 5, true});
  } else {
    const std::vector<int> counts =
        quick ? std::vector<int>{250, 1000}
              : std::vector<int>{250, 500, 1000, 2000, 3000, 3500, 4000};
    const int moves = quick ? 5 : 10;
    for (int c : counts) configs.push_back({c, c, moves, false});
    if (!quick) {
      // The 100k-avatar single-shard regime.
      for (int c : {10000, 20000, 50000, 100000}) {
        configs.push_back({c, MoversFor(c), 5, true});
      }
    }
  }

  // Not a RunScenario sweep (this binary drives its own client fleet),
  // but the points are still independent simulations: fan them out over
  // the same work-stealing pool.
  std::vector<CapacityPoint> points(configs.size());
  ParallelFor(configs.size(), num_jobs, [&](size_t i) {
    const auto start = std::chrono::steady_clock::now();
    points[i] = RunCapacity(configs[i]);
    points[i].wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
  });

  std::printf("%-8s %-8s %-8s %-18s %-16s %-10s %-12s\n", "clients",
              "movers", "regime", "server CPU busy %", "mean resp ms",
              "p95 ms", "scan ratio");
  for (const CapacityPoint& p : points) {
    std::printf("%-8d %-8d %-8s %-18.1f %-16.1f %-10.1f %-12.4f\n",
                p.config.clients, p.config.movers,
                p.config.xl ? "xl" : "classic", p.server_busy_pct,
                p.mean_response_ms, p.p95_response_ms,
                p.stats.fanout.DirtyScanRatio(p.config.clients));
  }

  // XL pacing bound: every XL point ran a mid-run crash/rejoin through
  // the 64-chunks-per-tick pacer, so the largest per-tick batch the
  // server recorded must sit in (0, 64] — zero means the rejoin never
  // streamed, above 64 means the pacer leaked a burst.
  bool pacing_ok = true;
  for (const CapacityPoint& p : points) {
    if (!p.config.xl) continue;
    const int64_t max_chunks = p.stats.sync.max_chunks_per_tick;
    if (max_chunks <= 0 || max_chunks > 64 || !p.rejoiner_caught_up) {
      std::fprintf(stderr,
                   "PACING FAIL: xl clients=%d "
                   "max_chunks_per_tick=%lld (bound 64) caught_up=%d\n",
                   p.config.clients, static_cast<long long>(max_chunks),
                   p.rejoiner_caught_up ? 1 : 0);
      pacing_ok = false;
    } else {
      std::printf("xl %-7d rejoin paced OK: %lld chunks, max "
                  "%lld/tick (bound 64)\n",
                  p.config.clients,
                  static_cast<long long>(p.stats.snapshot_chunks),
                  static_cast<long long>(max_chunks));
    }
  }

  // Bespoke JSON (no RunReport here): same top-level envelope as the
  // sweep benches, capacity-specific row fields.
  std::string j = "{\n  \"bench\": \"server_capacity\",\n";
  j += "  \"schema_version\": 1,\n";
  j += "  \"jobs\": " + std::to_string(num_jobs) + ",\n";
  j += std::string("  \"quick\": ") + (quick ? "true" : "false") + ",\n";
  j += "  \"rows\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const CapacityPoint& p = points[i];
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "    {\"clients\": %d, \"movers\": %d, \"moves_per_client\": %d, "
        "\"regime\": \"%s\", "
        "\"server_busy_pct\": %.6g, \"response_mean_ms\": %.6g, "
        "\"response_p95_ms\": %.6g, \"wall_seconds\": %.6g, "
        "\"intersect_calls\": %llu, \"sig_rejects\": %llu, "
        "\"digest_folds\": %llu, \"digest_rescans\": %llu, "
        "\"dirty_scan_ratio\": %.6g, \"rejoiner_caught_up\": %s",
        p.config.clients, p.config.movers, p.config.moves,
        p.config.xl ? "xl" : "classic", p.server_busy_pct,
        p.mean_response_ms, p.p95_response_ms, p.wall_seconds,
        static_cast<unsigned long long>(p.intersect_calls),
        static_cast<unsigned long long>(p.sig_rejects),
        static_cast<unsigned long long>(p.digest_folds),
        static_cast<unsigned long long>(p.digest_rescans),
        p.stats.fanout.DirtyScanRatio(p.config.clients),
        p.rejoiner_caught_up ? "true" : "false");
    j += row;
    bench::AppendCounters(&j, kProtocolFields, p.stats);
    bench::AppendCounters(&j, kFanoutFields, p.stats.fanout);
    bench::AppendCounters(&j, kSyncFields, p.stats.sync);
    j += i + 1 < points.size() ? "},\n" : "}\n";
  }
  j += "  ]\n}\n";
  if (std::FILE* f = std::fopen("BENCH_server_capacity.json", "w")) {
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("wrote BENCH_server_capacity.json (%zu rows, jobs=%d)\n",
                points.size(), num_jobs);
  } else {
    std::fprintf(stderr, "WARNING: cannot write BENCH_server_capacity.json\n");
  }
  return pacing_ok ? 0 : 1;
}
