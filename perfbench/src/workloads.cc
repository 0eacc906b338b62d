#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

using seve::kMicrosPerMilli;
using seve::kMicrosPerSecond;
using seve::Scenario;

// The paper's testbed point (Table I), unchanged: 100k walls make the
// move-cost wall scan the dominant host cost, so this is the world-layer
// workload; shard, sync, channel and wire stay idle.
Workload PaperTable1(bool small) {
  Workload w;
  w.name = "paper_table1";
  w.arch = seve::Architecture::kSeve;
  w.scenario = Scenario::TableOne(small ? 16 : 64);
  w.pool = 4;
  if (small) {
    w.scenario.world.num_walls = 10000;
    w.scenario.moves_per_client = 20;
  }
  return w;
}

// bench_fig6_sharded's flash-crowd base scenario at 20k clients on 8
// shards with rebalancing on: latency-only links and a fixed 50 us move
// cost leave the event loop, network and shard tier as the host cost.
Workload CrowdSharded(bool small) {
  Workload w;
  w.name = "crowd_sharded";
  w.arch = seve::Architecture::kSeveSharded;
  w.pool = 2;
  Scenario& s = w.scenario;
  s = Scenario::TableOne(small ? 2000 : 20000);
  s.moves_per_client = small ? 6 : 12;
  s.move_period_us = 1000 * kMicrosPerMilli;
  s.world.num_walls = 1000;
  s.link_kbps = 0.0;
  s.fixed_move_cost_us = 50;
  s.workload.kind = seve::WorkloadKind::kFlashCrowd;
  s.workload.crowd_radius = 120.0;
  s.workload.spacing = 0.5;
  s.workload.sparse_reads = true;
  s.workload.sparse_replicas = true;
  s.workload.sample_visibility = false;
  s.shards = 8;
  s.rebalance.enabled = true;
  s.rebalance.period_us = s.move_period_us;
  s.rebalance.headroom = 1.1;
  s.rebalance.max_moves_per_epoch = 100'000;
  return w;
}

// Table I with the paper's mean move cost fixed (takes the wall scan out
// of host time), over lossy bandwidth-capped links behind the reliable
// channel, with verified wire encoding, delta-sync rejoin, anti-entropy
// and four crash/rejoin cycles. The only workload that exercises the
// channel, wire and sync layers; its p99 keeps the channel's head-of-line
// tail visible. 0.2% loss and 150 moves rather than 0.5% and 300: at 0.5%
// the median response flips between a fast and a stalled mode from seed
// to seed (IQR 28% of the median over ten seeds, even pooling four).
Workload LossyRejoin(bool small) {
  Workload w;
  w.name = "lossy_rejoin";
  w.arch = seve::Architecture::kSeve;
  w.pool = 6;
  Scenario& s = w.scenario;
  s = Scenario::TableOne(small ? 16 : 64);
  s.fixed_move_cost_us = 7440;
  s.moves_per_client = small ? 60 : 150;
  s.reliable_transport = true;
  s.drop_probability = 0.002;
  s.wire_mode = seve::WireMode::kVerify;
  s.seve.delta_sync = true;
  s.seve.anti_entropy_period_us = 10 * kMicrosPerSecond;
  const int stride = s.num_clients / 4;
  for (int k = 0; k < 4; ++k) {
    s.failures.push_back(Scenario::FailureEvent{
        k * stride, 3 * kMicrosPerSecond, 6 * kMicrosPerSecond});
  }
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "paper_table1", "crowd_sharded", "lossy_rejoin"};
  return kNames;
}

bool MakeWorkload(const std::string& name, uint64_t seed, bool small,
                  Workload* out) {
  if (name == "paper_table1") {
    *out = PaperTable1(small);
  } else if (name == "crowd_sharded") {
    *out = CrowdSharded(small);
  } else if (name == "lossy_rejoin") {
    *out = LossyRejoin(small);
  } else {
    return false;
  }
  out->scenario.seed = seed;
  return true;
}

uint64_t SubSeed(uint64_t seed, int i) {
  if (i == 0) return seed;
  // SplitMix64 of (seed, i): derived seeds never repeat a small seed.
  const auto n = static_cast<uint64_t>(i);
  uint64_t z = seed + uint64_t{0x9e3779b97f4a7c15} * n;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t ScheduledMoves(const Scenario& s) {
  return static_cast<int64_t>(s.num_clients) * s.moves_per_client;
}

int64_t ScheduledRejoins(const Scenario& s) {
  int64_t n = 0;
  for (const Scenario::FailureEvent& f : s.failures) {
    if (f.rejoin_at_us > f.fail_at_us) ++n;
  }
  return n;
}

}  // namespace perfbench
