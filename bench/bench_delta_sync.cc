// Delta-sync rejoin economics (DESIGN.md §15): a rejoining client whose
// replica diverges from the authoritative state by a fraction d should
// pay O(d) bytes on the wire, not O(world). Each point rebuilds the same
// divergence twice — once over the full-snapshot path, once over the IBF
// reconciliation handshake — and compares the actual catch-up bytes both
// directions of the link carried. The acceptance bar from the PR issue:
// at the 50,000-object world with <=1% divergence, the delta rejoin
// costs under 10% of the full snapshot, with bit-identical end states in
// every arm.
//
// The byte accounting is clean because the world is idle during the
// catch-up: no submissions, no commit notices, no dirty slots — every
// byte the two nodes send between Rejoin() and convergence belongs to
// the catch-up itself (request + strata + IBF + delta/snapshot stream).

#include <chrono>
#include <cstdio>
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

constexpr Micros kLatency = 10000;
constexpr Micros kRtt = 2 * kLatency;

struct DeltaConfig {
  int64_t objects = 0;
  double divergence = 0.0;  // fraction of objects stale on the client
  bool delta = false;       // IBF handshake vs full snapshot
};

struct DeltaPoint {
  DeltaConfig config;
  int64_t stale_objects = 0;
  int64_t catchup_bytes = 0;  // both directions, Rejoin() -> converged
  uint64_t end_digest = 0;
  SyncCounters sync;
  int64_t snapshot_chunks = 0;
  double wall_seconds = 0.0;
};

// The divergent replica: most stale objects hold an outdated value, a
// few are missing entirely, and a few extras linger that the authority
// has dropped — the three repair shapes PlanDelta distinguishes.
WorldState DivergentReplica(const WorldState& authority, int64_t stale) {
  WorldState replica = authority;
  for (int64_t k = 0; k < stale; ++k) {
    const ObjectId id(static_cast<uint64_t>(k) + 1);  // ids are 1..N
    if (k % 10 == 8) {
      (void)replica.Remove(id);  // missing: must be shipped
    } else if (k % 10 == 9) {
      replica.SetAttr(ObjectId(static_cast<uint64_t>(k) + 10'000'000), 1,
                      Value(int64_t{-1}));  // extra: must be removed
    } else {
      replica.SetAttr(id, 1, Value(int64_t{k + 777}));  // stale value
    }
  }
  return replica;
}

DeltaPoint RunPoint(const DeltaConfig& cfg) {
  EventLoop loop;
  Network net(&loop);
  SeveOptions opts;
  opts.proactive_push = true;
  opts.dropping = false;
  opts.tick_us = 20'000;
  opts.commit_notice_period_us = 0;  // keep the idle world silent
  opts.delta_sync = cfg.delta;

  WorldState authority;
  for (int64_t i = 1; i <= cfg.objects; ++i) {
    authority.SetAttr(ObjectId(static_cast<uint64_t>(i)), 1, Value(i));
  }
  const int64_t stale = static_cast<int64_t>(
      static_cast<double>(cfg.objects) * cfg.divergence);

  InterestModel interest(10.0, kRtt, opts.omega);
  SeveServer server(NodeId(0), &loop, authority, CostModel{}, interest,
                    opts, AABB{{-100.0, -100.0}, {100.0, 100.0}});
  net.AddNode(&server);
  SeveClient client(
      NodeId(1), &loop, ClientId(0), NodeId(0),
      DivergentReplica(authority, stale),
      [](const Action&, const WorldState&) -> Micros { return 100; },
      /*install_us=*/10, opts);
  net.AddNode(&client);
  net.ConnectBidirectional(NodeId(0), NodeId(1),
                           LinkParams::LatencyOnly(kLatency));
  server.RegisterClient(ClientId(0), NodeId(1),
                        ProfileAt({0.0, 0.0}, 10.0));
  server.Start();
  loop.RunUntil(50'000);

  const int64_t bytes_before =
      server.traffic().sent.bytes + client.traffic().sent.bytes;
  client.Rejoin();
  loop.RunUntil(loop.now() + 5'000'000);
  const int64_t bytes_after =
      server.traffic().sent.bytes + client.traffic().sent.bytes;

  server.Stop();
  client.StopSync();
  loop.RunUntilIdle(10'000'000);
  server.FlushAll();
  loop.RunUntilIdle(10'000'000);

  DeltaPoint point;
  point.config = cfg;
  point.stale_objects = stale;
  point.catchup_bytes = bytes_after - bytes_before;
  point.sync = server.stats().sync;
  point.sync.Merge(client.stats().sync);
  point.snapshot_chunks = server.stats().snapshot_chunks;
  if (client.rejoining() ||
      client.stable().Digest() != server.authoritative().Digest()) {
    std::fprintf(stderr,
                 "FATAL: arm %s objects=%lld divergence=%.3f did not "
                 "converge to the authority\n",
                 cfg.delta ? "delta" : "full",
                 static_cast<long long>(cfg.objects), cfg.divergence);
    std::abort();
  }
  point.end_digest = server.authoritative().Digest();
  return point;
}

}  // namespace
}  // namespace seve

int main(int argc, char** argv) {
  using namespace seve;
  bench::Banner(
      "Delta-sync rejoin - bytes scale with the diff, not the world",
      "IBF reconciliation ships O(divergence) bytes; the 50k-object "
      "world at <=1% divergence rejoins for <10% of a full snapshot");

  const bool quick = bench::QuickMode(argc, argv);
  const int num_jobs = bench::JobsArg(argc, argv);

  const std::vector<int64_t> worlds =
      quick ? std::vector<int64_t>{2'000, 10'000}
            : std::vector<int64_t>{10'000, 50'000};
  const std::vector<double> divergences = {0.001, 0.01, 0.1};
  std::vector<DeltaConfig> configs;
  for (const int64_t n : worlds) {
    for (const double d : divergences) {
      configs.push_back({n, d, /*delta=*/false});
      configs.push_back({n, d, /*delta=*/true});
    }
  }

  std::vector<DeltaPoint> points(configs.size());
  ParallelFor(configs.size(), num_jobs, [&](size_t i) {
    const auto start = std::chrono::steady_clock::now();
    points[i] = RunPoint(configs[i]);
    points[i].wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
  });

  std::printf("%-9s %-11s %-7s %-7s %-13s %-12s %-10s\n", "objects",
              "divergence", "stale", "arm", "catchup KB", "shipped",
              "ratio");
  bool accepted = true;
  for (size_t i = 0; i + 1 < points.size(); i += 2) {
    const DeltaPoint& full = points[i];
    const DeltaPoint& delta = points[i + 1];
    const double ratio = static_cast<double>(delta.catchup_bytes) /
                         static_cast<double>(full.catchup_bytes);
    std::printf("%-9lld %-11.3f %-7lld %-7s %-13.1f %-12s %-10s\n",
                static_cast<long long>(full.config.objects),
                full.config.divergence,
                static_cast<long long>(full.stale_objects), "full",
                static_cast<double>(full.catchup_bytes) / 1024.0, "-", "-");
    std::printf("%-9lld %-11.3f %-7lld %-7s %-13.1f %-12lld %-10.4f\n",
                static_cast<long long>(delta.config.objects),
                delta.config.divergence,
                static_cast<long long>(delta.stale_objects), "delta",
                static_cast<double>(delta.catchup_bytes) / 1024.0,
                static_cast<long long>(delta.sync.objects_shipped), ratio);
    // Every arm must land on the same authoritative digest.
    if (full.end_digest != delta.end_digest) {
      std::fprintf(stderr, "FATAL: digest mismatch between arms\n");
      return 1;
    }
    // Acceptance: the largest world at <=1% divergence rejoins for <10%
    // of the snapshot bytes (the quick worlds get a looser sanity bar —
    // the fixed strata overhead is a bigger share of a smaller world).
    const double bar =
        full.config.objects == worlds.back() && !quick ? 0.10 : 0.50;
    if (full.config.divergence <= 0.01 && ratio >= bar) {
      std::fprintf(stderr,
                   "ACCEPTANCE FAIL: objects=%lld divergence=%.3f "
                   "ratio=%.4f (bar %.2f)\n",
                   static_cast<long long>(full.config.objects),
                   full.config.divergence, ratio, bar);
      accepted = false;
    }
    if (delta.sync.delta_rejoins + delta.sync.fallbacks != 1) {
      std::fprintf(stderr, "ACCEPTANCE FAIL: delta arm ran no handshake\n");
      accepted = false;
    }
  }

  std::string j = "{\n  \"bench\": \"delta_sync\",\n";
  j += "  \"schema_version\": 1,\n";
  j += "  \"jobs\": " + std::to_string(num_jobs) + ",\n";
  j += std::string("  \"quick\": ") + (quick ? "true" : "false") + ",\n";
  j += "  \"rows\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const DeltaPoint& p = points[i];
    char row[256];
    std::snprintf(
        row, sizeof(row),
        "    {\"objects\": %lld, \"divergence\": %.6g, \"stale\": %lld, "
        "\"arm\": \"%s\", \"catchup_bytes\": %lld, "
        "\"snapshot_chunks\": %lld, \"wall_seconds\": %.6g",
        static_cast<long long>(p.config.objects), p.config.divergence,
        static_cast<long long>(p.stale_objects),
        p.config.delta ? "delta" : "full",
        static_cast<long long>(p.catchup_bytes),
        static_cast<long long>(p.snapshot_chunks), p.wall_seconds);
    j += row;
    bench::AppendCounters(&j, kSyncFields, p.sync);
    j += i + 1 < points.size() ? "},\n" : "}\n";
  }
  j += "  ]\n}\n";
  if (std::FILE* f = std::fopen("BENCH_delta_sync.json", "w")) {
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("wrote BENCH_delta_sync.json (%zu rows, jobs=%d)\n",
                points.size(), num_jobs);
  } else {
    std::fprintf(stderr, "WARNING: cannot write BENCH_delta_sync.json\n");
  }
  return accepted ? 0 : 1;
}
