// Microbenchmarks for the substrates: world-state store, spatial index,
// move evaluation, and the discrete-event loop. These quantify the real
// CPU cost of the simulator itself (distinct from the calibrated virtual
// costs charged inside experiments).

#include <benchmark/benchmark.h>

#include "bench/gbench_main.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "net/event_loop.h"
#include "shard/shard_map.h"
#include "spatial/grid_index.h"
#include "store/world_state.h"
#include "world/attrs.h"
#include "world/manhattan_world.h"
#include "world/wall.h"

namespace seve {
namespace {

void BM_WorldStateSetAttr(benchmark::State& state) {
  WorldState ws;
  for (uint64_t i = 0; i < 1000; ++i) {
    ws.SetAttr(ObjectId(i), kAttrPosition, Value(Vec2{0.0, 0.0}));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    ws.SetAttr(ObjectId(i % 1000), kAttrPosition,
               Value(Vec2{static_cast<double>(i), 0.0}));
    ++i;
  }
}
BENCHMARK(BM_WorldStateSetAttr);

void BM_WorldStateDigest(benchmark::State& state) {
  WorldState ws;
  const auto n = static_cast<uint64_t>(state.range(0));
  for (uint64_t i = 0; i < n; ++i) {
    ws.SetAttr(ObjectId(i), kAttrPosition,
               Value(Vec2{static_cast<double>(i), 1.0}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ws.Digest());
  }
  state.counters["digest_folds"] = static_cast<double>(ws.digest_folds());
  state.counters["digest_rescans"] = static_cast<double>(ws.digest_rescans());
}
// The incremental digest makes this flat in the object count (it used to
// rescan all n objects per call); 16384 is the tell.
BENCHMARK(BM_WorldStateDigest)->Arg(64)->Arg(1024)->Arg(16384);

// The realistic digest workload: mutate one object, then read the digest
// (what the sweep determinism checks and consistency audits do per
// frame). Cost must be one hash fold, independent of store size.
void BM_WorldStateMutateDigest(benchmark::State& state) {
  WorldState ws;
  const auto n = static_cast<uint64_t>(state.range(0));
  for (uint64_t i = 0; i < n; ++i) {
    ws.SetAttr(ObjectId(i), kAttrPosition,
               Value(Vec2{static_cast<double>(i), 1.0}));
  }
  uint64_t k = 0;
  for (auto _ : state) {
    ws.SetAttr(ObjectId(k % n), kAttrPosition,
               Value(Vec2{static_cast<double>(k), 2.0}));
    benchmark::DoNotOptimize(ws.Digest());
    ++k;
  }
  state.counters["digest_folds"] = static_cast<double>(ws.digest_folds());
  state.counters["digest_rescans"] = static_cast<double>(ws.digest_rescans());
}
BENCHMARK(BM_WorldStateMutateDigest)->Arg(64)->Arg(1024)->Arg(16384);

void BM_GridIndexQuery(benchmark::State& state) {
  Rng rng(1);
  GridIndex index(AABB{{0.0, 0.0}, {1000.0, 1000.0}}, 20.0);
  for (uint64_t key = 0; key < 100000; ++key) {
    const Vec2 center{rng.NextDouble(0.0, 1000.0),
                      rng.NextDouble(0.0, 1000.0)};
    (void)index.Insert(key, AABB::FromCircle(center, 5.0));
  }
  for (auto _ : state) {
    int count = 0;
    index.QueryCircle({500.0, 500.0}, 30.0,
                      [&count](uint64_t) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_GridIndexQuery);

// The avatar-tick workload: items jitter by small steps, so most Move
// calls keep the covered cell range unchanged (the fast path).
void BM_GridIndexAvatarMove(benchmark::State& state) {
  Rng rng(3);
  GridIndex index(AABB{{0.0, 0.0}, {1000.0, 1000.0}}, 20.0);
  std::vector<Vec2> pos(64);
  for (uint64_t key = 0; key < 64; ++key) {
    pos[key] = {rng.NextDouble(100.0, 900.0), rng.NextDouble(100.0, 900.0)};
    (void)index.Insert(key, AABB::FromCircle(pos[key], 0.5));
  }
  uint64_t k = 0;
  for (auto _ : state) {
    const uint64_t key = k % 64;
    Vec2& p = pos[key];
    p.x += rng.NextDouble(-3.0, 3.0);
    p.y += rng.NextDouble(-3.0, 3.0);
    p.x = std::min(std::max(p.x, 50.0), 950.0);
    p.y = std::min(std::max(p.y, 50.0), 950.0);
    benchmark::DoNotOptimize(index.Move(key, AABB::FromCircle(p, 0.5)));
    ++k;
  }
}
BENCHMARK(BM_GridIndexAvatarMove);

// Collection variant used by code that needs the result list (sorted API).
void BM_GridIndexCollectCircle(benchmark::State& state) {
  Rng rng(4);
  GridIndex index(AABB{{0.0, 0.0}, {1000.0, 1000.0}}, 20.0);
  for (uint64_t key = 0; key < 100000; ++key) {
    const Vec2 center{rng.NextDouble(0.0, 1000.0),
                      rng.NextDouble(0.0, 1000.0)};
    (void)index.Insert(key, AABB::FromCircle(center, 5.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.CollectCircle({500.0, 500.0}, 30.0));
  }
}
BENCHMARK(BM_GridIndexCollectCircle);

// Evaluations of one move: the optimistic one plus ~6.3 by other replicas
// on perfbench's paper_table1. The Repeated variants below replay each
// query this many times in a row, so six of every seven iterations are
// memo hits, and report the mean cost per evaluation. The plain variants
// draw a fresh query every iteration, so no query repeats and they time
// the memo-miss path: the kernel plus the memo's lookup and store.
constexpr int kEvalsPerMove = 7;

// The Table-I visible-wall count: 100k walls, the cost model's wall-check
// radius (visibility 30 x 1.9), a fresh center from the Rng per query so
// the scan cannot settle into one cache-warm neighbourhood; each center
// is queried `replays` times in a row.
void WallCountNear(benchmark::State& state, int replays) {
  Rng gen(5);
  const auto field = WallField::Generate(
      AABB{{0.0, 0.0}, {1000.0, 1000.0}}, 100000, 10.0, &gen);
  Rng rng(6);
  Vec2 center;
  int replays_left = 0;
  int64_t walls = 0;
  for (auto _ : state) {
    if (replays_left-- == 0) {
      center = {rng.NextDouble(0.0, 1000.0), rng.NextDouble(0.0, 1000.0)};
      replays_left = replays - 1;
    }
    const int count = field->CountNear(center, 30.0 * 1.9);
    benchmark::DoNotOptimize(count);
    walls += count;
  }
  state.counters["walls_per_query"] =
      benchmark::Counter(static_cast<double>(walls),
                         benchmark::Counter::kAvgIterations);
}
void BM_WallCountNear(benchmark::State& state) { WallCountNear(state, 1); }
BENCHMARK(BM_WallCountNear);
void BM_WallCountNearRepeated(benchmark::State& state) {
  WallCountNear(state, kEvalsPerMove);
}
BENCHMARK(BM_WallCountNearRepeated);

// The per-move collision sweep: a Table-I step (speed 10 x 300 ms) of an
// avatar of radius 0.5 along a random axis heading; each sweep is queried
// `replays` times in a row.
void WallFirstHit(benchmark::State& state, int replays) {
  Rng gen(5);
  const auto field = WallField::Generate(
      AABB{{0.0, 0.0}, {1000.0, 1000.0}}, 100000, 10.0, &gen);
  const Vec2 headings[] = {{1.0, 0.0}, {-1.0, 0.0}, {0.0, 1.0}, {0.0, -1.0}};
  Rng rng(7);
  Vec2 start;
  Vec2 heading;
  int replays_left = 0;
  int64_t hits = 0;
  for (auto _ : state) {
    if (replays_left-- == 0) {
      start = {rng.NextDouble(0.0, 1000.0), rng.NextDouble(0.0, 1000.0)};
      heading = headings[rng.NextBounded(4)];
      replays_left = replays - 1;
    }
    const auto hit = field->FirstHit(start, heading, 3.0, 0.5);
    benchmark::DoNotOptimize(hit);
    hits += hit.has_value() ? 1 : 0;
  }
  state.counters["hit_frac"] = benchmark::Counter(
      static_cast<double>(hits), benchmark::Counter::kAvgIterations);
}
void BM_WallFirstHit(benchmark::State& state) { WallFirstHit(state, 1); }
BENCHMARK(BM_WallFirstHit);
void BM_WallFirstHitRepeated(benchmark::State& state) {
  WallFirstHit(state, kEvalsPerMove);
}
BENCHMARK(BM_WallFirstHitRepeated);

void BM_MoveEvaluation(benchmark::State& state) {
  WorldConfig cfg;
  cfg.num_walls = static_cast<int>(state.range(0));
  cfg.num_avatars = 64;
  ManhattanWorld world(cfg, 5);
  WorldState ws = world.InitialState();
  uint64_t k = 0;
  for (auto _ : state) {
    const int avatar = static_cast<int>(k % 64);
    auto move = world.MakeMove(ActionId(k), ClientId(k % 64), avatar, 0, ws,
                               300000);
    benchmark::DoNotOptimize(move->Apply(&ws));
    ++k;
  }
}
BENCHMARK(BM_MoveEvaluation)->ArgName("walls")->Arg(1000)->Arg(100000);

void BM_EventLoopChurn(benchmark::State& state) {
  for (auto _ : state) {
    EventLoop loop;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      loop.At(i, [&fired]() { ++fired; });
    }
    loop.RunUntilIdle();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventLoopChurn);

// The schedule/run kernel with realistic captures: protocol callbacks
// carry shared_ptr bodies plus ids, which overflow std::function's
// small-buffer optimization and used to heap-allocate per event.
void BM_EventLoopScheduleRun(benchmark::State& state) {
  auto payload = std::make_shared<int>(7);
  for (auto _ : state) {
    EventLoop loop;
    int64_t sum = 0;
    for (int i = 0; i < 1000; ++i) {
      uint64_t a = static_cast<uint64_t>(i);
      uint64_t b = a ^ 0x9e3779b97f4a7c15ULL;
      uint64_t c = a + b;
      loop.At(i, [&sum, payload, a, b, c]() {
        sum += static_cast<int64_t>(a + b + c) + *payload;
      });
    }
    loop.RunUntilIdle();
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_EventLoopScheduleRun);

// Interleaved schedule/run (timer-wheel style): every fired event
// schedules a successor, so the heap stays warm and small.
void BM_EventLoopPingPong(benchmark::State& state) {
  for (auto _ : state) {
    EventLoop loop;
    int64_t fired = 0;
    std::function<void()> tick = [&]() {
      if (++fired < 1000) loop.After(10, tick);
    };
    loop.After(10, tick);
    loop.RunUntilIdle();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventLoopPingPong);

// The up-front move schedule of a 20k-client, 12-move run at a 1 s period
// (perfbench's crowd_sharded): 240k events spread over 12 s are live
// before the first one fires, and each, like a move's first send,
// schedules a delivery one link latency later while the rest still wait.
void BM_EventLoopPrescheduledDrain(benchmark::State& state) {
  constexpr int kClients = 20000;
  constexpr int kMoves = 12;
  constexpr VirtualTime kPeriod = 1'000'000;
  Rng rng(11);
  std::vector<VirtualTime> start(kClients);
  for (VirtualTime& t : start) {
    t = static_cast<VirtualTime>(
        rng.NextBounded(static_cast<uint64_t>(kPeriod)));
  }
  int64_t fired = 0;
  for (auto _ : state) {
    EventLoop loop;
    for (int c = 0; c < kClients; ++c) {
      const Micros latency = 119'000 + c % 64;
      for (int k = 0; k < kMoves; ++k) {
        loop.At(start[static_cast<size_t>(c)] + k * kPeriod,
                [&loop, &fired, latency]() {
                  ++fired;
                  loop.After(latency, [&fired]() { ++fired; });
                });
      }
    }
    loop.RunUntilIdle();
  }
  benchmark::DoNotOptimize(fired);
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(fired), benchmark::Counter::kAvgIterations);
  state.counters["time_per_event"] = benchmark::Counter(
      static_cast<double>(fired),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EventLoopPrescheduledDrain)->Unit(benchmark::kMillisecond);

void BM_ObjectSetIntersects(benchmark::State& state) {
  Rng rng(2);
  std::vector<ObjectId> a_ids, b_ids;
  for (int i = 0; i < 16; ++i) {
    a_ids.push_back(ObjectId(rng.NextBounded(1000)));
    b_ids.push_back(ObjectId(rng.NextBounded(1000)));
  }
  const ObjectSet a(a_ids), b(b_ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Intersects(b));
  }
}
BENCHMARK(BM_ObjectSetIntersects);

// The sharded tier's routing predicate (DESIGN.md §12): one Bloom AND
// rejects most cross-shard read sets before any per-id owner lookup.
// range(0) = 1 benches the hit path (set fully inside shard 0), 0 the
// reject path (set straddles shards, usually killed by the signature).
void BM_IsSubsetOfShard(benchmark::State& state) {
  WorldState initial;
  for (uint64_t i = 0; i < 4096; ++i) {
    const double x = static_cast<double>(i % 64) * 15.0;
    const double y = static_cast<double>(i / 64) * 15.0;
    initial.SetAttr(ObjectId(i), kAttrPosition, Value(Vec2{x, y}));
  }
  const ShardMap map(AABB{{0.0, 0.0}, {1000.0, 1000.0}}, 4, initial);
  const bool local = state.range(0) == 1;
  std::vector<ObjectId> ids;
  Rng rng(7);
  for (int i = 0; i < 16; ++i) {
    const uint64_t id = rng.NextBounded(4096);
    ids.push_back(local ? ObjectId(map.objects_of(0)[id % map.objects_of(0)
                                                             .size()]
                                       .value())
                        : ObjectId(id));
  }
  const ObjectSet set(ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.IsSubsetOfShard(map, 0));
  }
}
BENCHMARK(BM_IsSubsetOfShard)->ArgName("local")->Arg(1)->Arg(0);

}  // namespace
}  // namespace seve

int main(int argc, char** argv) {
  return seve::bench::GBenchMain("micro_substrate", argc, argv);
}
