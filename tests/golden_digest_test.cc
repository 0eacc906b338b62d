// Cross-commit digest pins. Every other determinism test compares two
// runs of the same build (thread counts, wire modes, shard counts); these
// compare a run against a value recorded once, so a change that is meant
// to be digest-neutral — a faster spatial kernel, a container swap — is
// caught if it moves any measured field of a RunReport.
//
// The scenarios are small but walled: moves collide with walls
// (WallField::FirstHit) and every move's cost is charged from the
// visible-wall count (WallField::CountNear), so both wall queries feed
// the response-time histograms the digest covers. Two more runs crash
// and rejoin clients, so the catch-up path (snapshot and delta-sync
// transfers, live-tail capture, anti-entropy) feeds the digest too.
//
// The values must be the same under gcc and clang. If a change moves one
// on purpose, re-record it and say why in the commit message.

#include <cinttypes>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "sim/sweep.h"

namespace seve {
namespace {

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string DigestOf(Architecture arch, const Scenario& s,
                     RunReport* out = nullptr) {
  Engine engine;
  auto report = engine.Run(arch, s);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return "";
  if (out != nullptr) *out = *report;
  return Hex(DigestReport(*report));
}

// Table I at a smaller scale: 16 clients over 30,000 walls.
Scenario WalledTableOne() {
  Scenario s = Scenario::TableOne(16);
  s.world.num_walls = 30000;
  s.moves_per_client = 20;
  s.seed = 7;
  return s;
}

// Four zone shards over a sparse wall field, latency-only links.
Scenario WalledSharded() {
  Scenario s = Scenario::TableOne(24);
  s.world.num_walls = 4000;
  s.moves_per_client = 10;
  s.link_kbps = 0.0;
  s.shards = 4;
  s.seed = 11;
  return s;
}

// Single server over lossy links behind the reliable channel: two
// crash/rejoins through IBF delta sync, with client anti-entropy rounds.
Scenario LossyDeltaRejoin() {
  Scenario s = Scenario::TableOne(12);
  s.world.num_walls = 2000;
  s.moves_per_client = 15;
  s.drop_probability = 0.01;
  s.reliable_transport = true;
  s.seve.delta_sync = true;
  s.seve.anti_entropy_period_us = 1'000'000;
  s.failures.push_back({/*client=*/1, /*fail_at_us=*/1'500'000,
                        /*rejoin_at_us=*/3'000'000});
  s.failures.push_back({/*client=*/6, /*fail_at_us=*/2'000'000,
                        /*rejoin_at_us=*/4'500'000});
  s.seed = 13;
  return s;
}

// Three zone shards, one client crash/rejoin through the partition
// snapshot path.
Scenario ShardedRejoin() {
  Scenario s = Scenario::TableOne(18);
  s.world.num_walls = 2000;
  s.moves_per_client = 10;
  s.link_kbps = 0.0;
  s.shards = 3;
  s.seve.all_client_completions = true;
  s.failures.push_back({/*client=*/2, /*fail_at_us=*/900'000,
                        /*rejoin_at_us=*/2'100'000});
  s.seed = 17;
  return s;
}

TEST(GoldenDigestTest, WalledSeveTableOne) {
  EXPECT_EQ(DigestOf(Architecture::kSeve, WalledTableOne()),
            "7c4ebc4dda67b8cc");
}

TEST(GoldenDigestTest, WalledSeveSharded) {
  EXPECT_EQ(DigestOf(Architecture::kSeveSharded, WalledSharded()),
            "1e12b0faea8a2542");
}

TEST(GoldenDigestTest, LossyDeltaRejoinAntiEntropy) {
  RunReport report;
  EXPECT_EQ(DigestOf(Architecture::kSeve, LossyDeltaRejoin(), &report),
            "16f910440a85806c");
  // The pin only guards the catch-up path if the run actually took it.
  EXPECT_EQ(report.server_stats.rejoins, 2);
  EXPECT_GE(report.server_stats.sync.delta_rejoins, 1);
  EXPECT_GT(report.server_stats.sync.ae_rounds, 0);
}

TEST(GoldenDigestTest, ShardedSnapshotRejoin) {
  RunReport report;
  EXPECT_EQ(DigestOf(Architecture::kSeveSharded, ShardedRejoin(), &report),
            "58f08525a7aa66fe");
  EXPECT_EQ(report.server_stats.rejoins, 1);
  EXPECT_GE(report.server_stats.snapshot_chunks, 1);
  // Recorded before the sharded tier shared the single server's catch-up
  // code, when shards never counted catch-up batches: with that one
  // counter cleared, the run still reproduces the older digest.
  EXPECT_EQ(report.server_stats.sync.max_chunks_per_tick, 1);
  report.server_stats.sync.max_chunks_per_tick = 0;
  EXPECT_EQ(Hex(DigestReport(report)), "9c21aef1d367fa03");
}

}  // namespace
}  // namespace seve
