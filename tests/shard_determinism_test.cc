// Determinism of the zone-sharded serialization tier (DESIGN.md §12):
// the merged committed state of an N-shard run must be bit-identical to
// the single-server run, the sweep digest must be independent of the
// worker-thread count and of the wire mode, and the guarantees must
// survive frame loss and a crash/rejoin of one shard's client.
//
// Two workloads:
//  - Spread: avatars 100 units apart — every closure is a singleton, so
//    every action takes the fast path and all replicas must agree.
//  - Boundary: a 9-unit grid straddling the shard cuts (< the 10-unit
//    move effect range), so neighbouring read sets cross shards and the
//    two-phase commit actually runs. Spacing and speed keep the workload
//    collision-free (max drift per avatar 3.2 < (9 - 1)/2), so written
//    values are a function of each avatar's own attributes and the
//    merged digest is independent of remote-read staleness; the 800 ms
//    move period exceeds the worst-case escalated reply latency
//    (~476 ms), so replies can never reorder across topologies.

#include <gtest/gtest.h>

#include "sim/runner.h"
#include "sim/sweep.h"

namespace seve {
namespace {

Scenario SpreadScenario(int clients, int moves) {
  Scenario s = Scenario::TableOne(clients);
  s.world.num_walls = 200;
  s.moves_per_client = moves;
  s.link_kbps = 0.0;
  s.world.spawn.pattern = SpawnConfig::Pattern::kGrid;
  s.world.spawn.grid_spacing = 100.0;
  return s;
}

Scenario BoundaryScenario(int clients, int moves) {
  Scenario s = Scenario::TableOne(clients);
  s.world.num_walls = 0;
  s.world.speed = 0.5;
  s.moves_per_client = moves;
  s.move_period_us = 800 * kMicrosPerMilli;
  s.link_kbps = 0.0;
  s.world.spawn.pattern = SpawnConfig::Pattern::kGrid;
  s.world.spawn.grid_spacing = 9.0;
  return s;
}

Scenario WithShards(Scenario s, int shards) {
  s.shards = shards;
  return s;
}

ShardCounters TotalCounters(const RunReport& r) {
  ShardCounters total;
  for (const ShardCounters& c : r.shard_counters) total.Merge(c);
  return total;
}

// A 1-shard tier runs the single server's closure and completion path,
// so besides the state it must reproduce the virtual metrics: response
// times and the closure work. Server bytes and the end time are not
// compared — only the single server sends CommitNotices.
void ExpectSameVirtualMetrics(const RunReport& one,
                              const RunReport& reference) {
  EXPECT_GT(reference.response_us.count(), 0);
  EXPECT_EQ(one.response_us.count(), reference.response_us.count());
  EXPECT_EQ(one.response_us.sum(), reference.response_us.sum());
  EXPECT_EQ(one.response_us.P99(), reference.response_us.P99());
  EXPECT_EQ(one.server_stats.closure_visits,
            reference.server_stats.closure_visits);
  EXPECT_EQ(one.server_stats.blind_writes,
            reference.server_stats.blind_writes);
  EXPECT_EQ(one.server_stats.closure_size.count(),
            reference.server_stats.closure_size.count());
}

// Spread workload: every closure is local, so any shard count must
// reproduce the single Incomplete-World server bit for bit — including
// each client's stable replica.
TEST(ShardDeterminismTest, SpreadMatchesSingleServer) {
  const Scenario base = SpreadScenario(8, 10);
  const RunReport reference =
      RunScenario(Architecture::kIncompleteWorld, base);

  for (const int shards : {1, 4, 8}) {
    const RunReport report =
        RunScenario(Architecture::kSeveSharded, WithShards(base, shards));
    ASSERT_EQ(report.shard_counters.size(),
              static_cast<size_t>(shards));
    const ShardCounters total = TotalCounters(report);
    EXPECT_GT(total.fast_path, 0) << shards << " shards";
    EXPECT_EQ(total.escalated, 0) << shards << " shards";
    EXPECT_TRUE(report.consistency.consistent());
    EXPECT_EQ(report.final_state_digest, reference.final_state_digest)
        << shards << " shards";
    ASSERT_EQ(report.client_state_digests.size(),
              reference.client_state_digests.size());
    for (size_t i = 0; i < reference.client_state_digests.size(); ++i) {
      EXPECT_EQ(report.client_state_digests[i],
                reference.client_state_digests[i])
          << "client " << i << " at " << shards << " shards";
    }
    if (shards == 1) ExpectSameVirtualMetrics(report, reference);
  }
}

// Boundary workload: closures cross the shard cuts, the two-phase commit
// escalates, and the merged committed state must still equal the
// single-server (and 1-shard) run exactly.
TEST(ShardDeterminismTest, BoundaryCommitMatchesSingleServer) {
  const Scenario base = BoundaryScenario(9, 8);
  const RunReport reference =
      RunScenario(Architecture::kIncompleteWorld, base);
  const RunReport one =
      RunScenario(Architecture::kSeveSharded, WithShards(base, 1));
  EXPECT_EQ(one.final_state_digest, reference.final_state_digest);
  EXPECT_EQ(TotalCounters(one).escalated, 0);
  ExpectSameVirtualMetrics(one, reference);

  for (const int shards : {4, 8}) {
    const RunReport report =
        RunScenario(Architecture::kSeveSharded, WithShards(base, shards));
    const ShardCounters total = TotalCounters(report);
    EXPECT_GT(total.escalated, 0) << shards << " shards";
    EXPECT_GT(total.fast_path, 0) << shards << " shards";
    EXPECT_GT(total.tokens_served, 0) << shards << " shards";
    // Clean drain: every escalation either committed or aborted.
    EXPECT_EQ(total.escalated, total.commits + total.aborts)
        << shards << " shards";
    EXPECT_EQ(total.aborts, 0) << shards << " shards";
    EXPECT_TRUE(report.consistency.consistent())
        << report.consistency.ToString();
    EXPECT_EQ(report.final_state_digest, reference.final_state_digest)
        << shards << " shards";
    EXPECT_NE(report.Summary().find("shards:"), std::string::npos);
  }
}

// The ISSUE acceptance bar: 4- and 8-shard runs produce bit-identical
// sweep digests whether the sweep ran on 1 worker thread or 8, in every
// wire mode.
TEST(ShardDeterminismTest, SweepDigestIndependentOfJobsAndWireMode) {
  std::vector<SweepJob> jobs;
  for (const int shards : {1, 4, 8}) {
    for (const WireMode mode :
         {WireMode::kDeclared, WireMode::kEncoded, WireMode::kVerify}) {
      SweepJob job;
      job.label = "sharded";
      job.x = static_cast<double>(jobs.size());
      job.arch = Architecture::kSeveSharded;
      job.scenario = WithShards(BoundaryScenario(9, 4), shards);
      job.scenario.wire_mode = mode;
      jobs.push_back(std::move(job));
    }
  }
  const std::vector<SweepResult> serial = RunSweep(jobs, 1);
  const std::vector<SweepResult> parallel = RunSweep(jobs, 8);
  ASSERT_EQ(serial.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(serial[i].digest, parallel[i].digest) << "job " << i;
    // Every frame in kVerify mode must round-trip the codecs cleanly —
    // including the shard prepare/token/commit/abort kinds.
    EXPECT_EQ(serial[i].report.wire_verify_failures, 0) << "job " << i;
  }
  // Wire accounting must not perturb the simulation itself: the merged
  // committed state per shard count is identical across wire modes.
  for (size_t i = 0; i < jobs.size(); i += 3) {
    EXPECT_EQ(serial[i].report.final_state_digest,
              serial[i + 1].report.final_state_digest);
    EXPECT_EQ(serial[i].report.final_state_digest,
              serial[i + 2].report.final_state_digest);
  }
}

// Chaos leg: 1% frame loss on every link (client<->shard and
// shard<->shard) with the reliable channel must converge to the
// lossless run, fast path and escalations alike.
TEST(ShardDeterminismTest, LossyShardedConvergence) {
  // Spread: full replica equivalence, exactly like the single-server
  // chaos matrix.
  {
    const Scenario clean = WithShards(SpreadScenario(6, 10), 4);
    const RunReport baseline =
        RunScenario(Architecture::kSeveSharded, clean);
    Scenario lossy = clean;
    lossy.drop_probability = 0.01;
    lossy.reliable_transport = true;
    const RunReport report =
        RunScenario(Architecture::kSeveSharded, lossy);
    ASSERT_EQ(report.client_state_digests.size(),
              baseline.client_state_digests.size());
    for (size_t i = 0; i < baseline.client_state_digests.size(); ++i) {
      EXPECT_EQ(report.client_state_digests[i],
                baseline.client_state_digests[i])
          << "client " << i;
    }
    EXPECT_EQ(report.final_state_digest, baseline.final_state_digest);
    EXPECT_GT(report.client_stats.channel.data_frames, 0);
    EXPECT_GT(report.server_stats.channel.data_frames, 0);
  }
  // Boundary: loss reshuffles token timing, which may shift the remote
  // values individual replicas observe, but the merged committed state
  // is a function of each avatar's own writes and must not move.
  {
    const Scenario clean = WithShards(BoundaryScenario(9, 6), 4);
    const RunReport baseline =
        RunScenario(Architecture::kSeveSharded, clean);
    Scenario lossy = clean;
    lossy.drop_probability = 0.01;
    lossy.reliable_transport = true;
    const RunReport report =
        RunScenario(Architecture::kSeveSharded, lossy);
    const ShardCounters total = TotalCounters(report);
    EXPECT_GT(total.escalated, 0);
    EXPECT_EQ(total.escalated, total.commits + total.aborts);
    EXPECT_TRUE(report.consistency.consistent())
        << report.consistency.ToString();
    EXPECT_EQ(report.final_state_digest, baseline.final_state_digest);
  }
}

// Crash/rejoin of one shard's client under loss (the PR 5 failure
// schedule, now against a shard server): the rejoin must run the real
// snapshot recovery, the epoch bump must fence the crashed incarnation's
// escalations, and the run must drain cleanly — every escalation
// resolved, no mismatched result digests. Within-run assertions only:
// recovery timing is topology-dependent, so no cross-topology digest
// comparison here.
TEST(ShardDeterminismTest, CrashRejoinOneShardClient) {
  Scenario s = WithShards(BoundaryScenario(9, 8), 4);
  s.seve.all_client_completions = true;
  s.drop_probability = 0.01;
  s.reliable_transport = true;
  s.failures.push_back(
      {/*client=*/1, /*fail_at_us=*/600'000, /*rejoin_at_us=*/1'400'000});

  const RunReport report = RunScenario(Architecture::kSeveSharded, s);

  EXPECT_EQ(report.client_stats.rejoins, 1);
  EXPECT_EQ(report.server_stats.rejoins, 1);
  EXPECT_GE(report.server_stats.snapshot_chunks, 1);
  const ShardCounters total = TotalCounters(report);
  EXPECT_GT(total.escalated, 0);
  // Clean drain even across the crash: commits + aborts account for
  // every escalation ever created.
  EXPECT_EQ(total.escalated, total.commits + total.aborts);
  EXPECT_TRUE(report.consistency.consistent())
      << report.consistency.ToString();
}

}  // namespace
}  // namespace seve
