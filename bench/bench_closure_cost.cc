// Section V-B.1 microbenchmark: "We empirically determined the time for
// calculating the transitive closure of conflicts over a single move to
// be about 0.04ms on average."
//
// Measures the REAL wall-clock cost of ServerQueue::WalkConflicts over a
// realistic uncommitted queue (Manhattan People moves), for several queue
// depths and conflict densities — this is genuine CPU work, not simulated
// cost.

#include <benchmark/benchmark.h>

#include "bench/gbench_main.h"

#include <memory>
#include <vector>

#include "common/rng.h"
#include "protocol/options.h"
#include "protocol/server_queue.h"
#include "world/attrs.h"
#include "world/manhattan_world.h"

namespace seve {
namespace {

/// Fills a server queue with `depth` uncommitted moves drawn from a
/// Manhattan People world of the given density.
struct QueueFixture {
  std::unique_ptr<ManhattanWorld> world;
  WorldState state;
  ServerQueue queue;
  std::vector<ActionPtr> actions;

  QueueFixture(int avatars, double world_side, int depth) {
    WorldConfig cfg;
    cfg.bounds = AABB{{0.0, 0.0}, {world_side, world_side}};
    cfg.num_walls = 1000;
    cfg.num_avatars = avatars;
    cfg.spawn.pattern = SpawnConfig::Pattern::kClustered;
    world = std::make_unique<ManhattanWorld>(cfg, 99);
    state = world->InitialState();
    Rng rng(4);
    for (int k = 0; k < depth; ++k) {
      const int avatar = static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(avatars)));
      auto move = world->MakeMove(ActionId(static_cast<uint64_t>(k)),
                                  ClientId(static_cast<uint64_t>(avatar)),
                                  avatar, 0, state, 300000);
      queue.Append(move, 0);
      actions.push_back(move);
      // Advance the reference state so consecutive moves chain.
      (void)move->Apply(&state);
    }
  }
};

void BM_TransitiveClosure(benchmark::State& bench_state) {
  const int avatars = static_cast<int>(bench_state.range(0));
  const int depth = static_cast<int>(bench_state.range(1));
  QueueFixture fx(avatars, /*world_side=*/1000.0, depth);

  // Walk the closure of the newest action, as Algorithm 6 does per reply.
  const ActionPtr& target = fx.actions.back();
  const ObjectSetCounters set_counters_before = GetObjectSetCounters();
  const uint64_t walk_visits_before = fx.queue.walk_visits_total();
  int64_t iters = 0;
  int64_t visits_total = 0;
  int64_t included_total = 0;
  for (auto _ : bench_state) {
    ObjectSet read_set = target->ReadSet();
    int included = 0;
    const int visits = fx.queue.WalkConflicts(
        fx.queue.end_pos() - 1, &read_set,
        [&included](SeqNum, const ServerQueue::WalkRec&) {
          ++included;
          return ServerQueue::WalkVerdict::kInclude;
        });
    benchmark::DoNotOptimize(visits);
    benchmark::DoNotOptimize(included);
    ++iters;
    visits_total += visits;
    included_total += included;
  }
  // Kernel counters, per closure walk: how much work the walk did and how
  // often the signature prefilter decided an intersection test by itself.
  // These land in BENCH_closure_cost.json alongside the timings.
  const ObjectSetCounters& sc = GetObjectSetCounters();
  const double denom = iters > 0 ? static_cast<double>(iters) : 1.0;
  bench_state.counters["walk_visits"] =
      static_cast<double>(visits_total) / denom;
  bench_state.counters["walk_included"] =
      static_cast<double>(included_total) / denom;
  bench_state.counters["queue_visits_total"] = static_cast<double>(
      fx.queue.walk_visits_total() - walk_visits_before);
  bench_state.counters["intersect_calls"] =
      static_cast<double>(sc.intersect_calls - set_counters_before.intersect_calls) /
      denom;
  bench_state.counters["sig_rejects"] =
      static_cast<double>(sc.sig_rejects - set_counters_before.sig_rejects) /
      denom;
  bench_state.counters["gallop_probes"] =
      static_cast<double>(sc.gallop_probes - set_counters_before.gallop_probes) /
      denom;
  bench_state.counters["merge_scans"] =
      static_cast<double>(sc.merge_scans - set_counters_before.merge_scans) /
      denom;
}
BENCHMARK(BM_TransitiveClosure)
    ->ArgNames({"avatars", "queue"})
    ->Args({64, 64})
    ->Args({64, 256})
    ->Args({256, 256})
    ->Args({1024, 1024})
    ->Args({3500, 3500});

void BM_ValidityWalkDeepQueue(benchmark::State& bench_state) {
  // Algorithm 7's validity walk as SeveServer::OnTick runs it on a deep
  // uncommitted queue (lossy_rejoin averages ~5.4k entries): each
  // iteration appends the next move at the tail, walks its conflict
  // chain with S = RS(a) and the distance threshold, and completes the
  // head so the depth stays put. Moves are generated for twice the
  // depth and cycled.
  const int depth = static_cast<int>(bench_state.range(0));
  QueueFixture fx(/*avatars=*/64, /*world_side=*/1000.0, 2 * depth);
  ServerQueue& queue = fx.queue;
  auto drop_head = [&queue]() {
    queue.Complete(queue.begin_pos(), 0, {}, [](const ServerQueue::Entry&) {});
  };
  while (queue.uncommitted_size() > static_cast<size_t>(depth)) drop_head();
  const double threshold = SeveOptions{}.threshold;
  size_t next = 0;
  int64_t iters = 0;
  int64_t visits_total = 0;
  int64_t stops = 0;
  for (auto _ : bench_state) {
    const SeqNum pos = queue.Append(fx.actions[next], 0);
    next = (next + 1) % fx.actions.size();
    const Vec2 anchor = queue.Record(pos).anchor;
    bool stopped = false;
    const int visits = queue.WalkConflicts(
        pos, nullptr, [&](SeqNum, const ServerQueue::WalkRec& other) {
          if (Distance(anchor, other.anchor) > threshold) {
            stopped = true;
            return ServerQueue::WalkVerdict::kStop;
          }
          return ServerQueue::WalkVerdict::kInclude;
        });
    benchmark::DoNotOptimize(visits);
    drop_head();
    ++iters;
    visits_total += visits;
    stops += stopped;
  }
  const double denom = iters > 0 ? static_cast<double>(iters) : 1.0;
  bench_state.counters["walk_visits"] =
      static_cast<double>(visits_total) / denom;
  bench_state.counters["stop_frac"] = static_cast<double>(stops) / denom;
  // Host nanoseconds per visit, the figure ROADMAP item 3(f) tracks.
  bench_state.counters["ns_per_visit"] = benchmark::Counter(
      static_cast<double>(visits_total),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ValidityWalkDeepQueue)->ArgName("queue")->Arg(1024)->Arg(5400);

void BM_QueueAppend(benchmark::State& bench_state) {
  QueueFixture fx(64, 1000.0, 1);
  const ActionPtr action = fx.actions.front();
  for (auto _ : bench_state) {
    ServerQueue queue;
    for (int i = 0; i < 100; ++i) queue.Append(action, 0);
    benchmark::DoNotOptimize(queue.end_pos());
  }
}
BENCHMARK(BM_QueueAppend);

void BM_InterestTestBatch(benchmark::State& bench_state) {
  // Equation-1 evaluation cost per candidate (the routing hot path).
  const int n = 1000;
  Rng rng(3);
  std::vector<InterestProfile> clients(n);
  for (auto& p : clients) {
    p.position = {rng.NextDouble(0.0, 1000.0), rng.NextDouble(0.0, 1000.0)};
    p.radius = 10.0;
  }
  InterestProfile action;
  action.position = {500.0, 500.0};
  action.radius = 10.0;
  const double bound = 2.0 * 10.0 * 1.5 * 0.238 + 20.0;
  for (auto _ : bench_state) {
    int hits = 0;
    for (const auto& client : clients) {
      if (DistanceSq(action.position, client.position) <= bound * bound) {
        ++hits;
      }
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_InterestTestBatch);

}  // namespace
}  // namespace seve

int main(int argc, char** argv) {
  return seve::bench::GBenchMain("closure_cost", argc, argv);
}
