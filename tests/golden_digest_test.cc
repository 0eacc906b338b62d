// Cross-commit digest pins. Every other determinism test compares two
// runs of the same build (thread counts, wire modes, shard counts); these
// compare a run against a value recorded once, so a change that is meant
// to be digest-neutral — a faster spatial kernel, a container swap — is
// caught if it moves any measured field of a RunReport.
//
// The scenarios are small but walled: moves collide with walls
// (WallField::FirstHit) and every move's cost is charged from the
// visible-wall count (WallField::CountNear), so both wall queries feed
// the response-time histograms the digest covers.
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

std::string DigestOf(Architecture arch, const Scenario& s) {
  Engine engine;
  auto report = engine.Run(arch, s);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return "";
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

TEST(GoldenDigestTest, WalledSeveTableOne) {
  EXPECT_EQ(DigestOf(Architecture::kSeve, WalledTableOne()),
            "7c4ebc4dda67b8cc");
}

TEST(GoldenDigestTest, WalledSeveSharded) {
  EXPECT_EQ(DigestOf(Architecture::kSeveSharded, WalledSharded()),
            "1e12b0faea8a2542");
}

}  // namespace
}  // namespace seve
