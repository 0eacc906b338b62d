#include "world/wall.h"

#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace seve {
namespace {

AABB Bounds() { return AABB{{0.0, 0.0}, {1000.0, 1000.0}}; }

// Reference answers: a loop over every wall, no spatial layout.
int BruteCount(const WallField& field, Vec2 center, double radius) {
  int count = 0;
  for (size_t i = 0; i < field.size(); ++i) {
    if (CircleIntersectsSegment(center, radius, field.wall(i).segment)) {
      ++count;
    }
  }
  return count;
}

std::optional<std::pair<double, size_t>> BruteFirstHit(
    const WallField& field, Vec2 start, Vec2 dir, double max_dist,
    double radius) {
  std::optional<std::pair<double, size_t>> best;
  for (size_t i = 0; i < field.size(); ++i) {
    const auto hit = MovingCircleSegmentHit(start, dir, max_dist, radius,
                                            field.wall(i).segment);
    if (hit.has_value() && (!best.has_value() || *hit < best->first)) {
      best = std::make_pair(*hit, i);
    }
  }
  return best;
}

struct FieldCase {
  const char* name;
  AABB bounds;
  int count;
  double wall_length;
  int hit_queries;  // FirstHit's reference loop is the slow one
};

// Dense Table-I field, a sparse one, long walls that the border clamps
// short, and an off-origin non-square world.
const FieldCase kFields[] = {
    {"table1_100k", {{0.0, 0.0}, {1000.0, 1000.0}}, 100000, 10.0, 40},
    {"sparse", {{0.0, 0.0}, {1000.0, 1000.0}}, 300, 10.0, 2000},
    {"long_clamped", {{0.0, 0.0}, {1000.0, 1000.0}}, 3000, 150.0, 1000},
    {"off_origin", {{-750.0, 120.0}, {-150.0, 480.0}}, 5000, 7.5, 600},
};

// Radii: zero, below one cell, Table I's wall-check radius (30 x 1.9),
// and wide.
double PickRadius(Rng* rng, int i) {
  switch (i % 4) {
    case 0:
      return 0.0;
    case 1:
      return rng->NextDouble(0.0, 4.0);
    case 2:
      return 30.0 * 1.9;
    default:
      return rng->NextDouble(0.0, 300.0);
  }
}

// A point in the bounds grown by a quarter on each side, so some queries
// start outside the world.
Vec2 PickPoint(Rng* rng, const AABB& b) {
  const double gx = 0.25 * b.Width();
  const double gy = 0.25 * b.Height();
  return {rng->NextDouble(b.min.x - gx, b.max.x + gx),
          rng->NextDouble(b.min.y - gy, b.max.y + gy)};
}

TEST(WallFieldEquivalenceTest, CountNearMatchesBruteForce) {
  for (const FieldCase& fc : kFields) {
    Rng gen(11);
    auto field = WallField::Generate(fc.bounds, fc.count, fc.wall_length,
                                     &gen);
    Rng rng(12);
    for (int q = 0; q < 800; ++q) {
      const Vec2 center = PickPoint(&rng, fc.bounds);
      const double radius = PickRadius(&rng, q);
      ASSERT_EQ(field->CountNear(center, radius),
                BruteCount(*field, center, radius))
          << fc.name << " query " << q << " center (" << center.x << ", "
          << center.y << ") radius " << radius;
    }
  }
}

TEST(WallFieldEquivalenceTest, CountNearExactAtWallEndpoints) {
  // Centers on wall endpoints and midpoints: radius 0 touches exactly,
  // and the walls sit on cell edges as often as chance allows.
  for (const FieldCase& fc : kFields) {
    Rng gen(21);
    auto field = WallField::Generate(fc.bounds, fc.count, fc.wall_length,
                                     &gen);
    Rng rng(22);
    for (int q = 0; q < 300; ++q) {
      const Segment& s =
          field->wall(static_cast<size_t>(rng.NextBounded(field->size())))
              .segment;
      const Vec2 center = q % 3 == 0   ? s.a
                          : q % 3 == 1 ? s.b
                                       : (s.a + s.b) * 0.5;
      const double radius = PickRadius(&rng, q);
      const int count = field->CountNear(center, radius);
      ASSERT_EQ(count, BruteCount(*field, center, radius))
          << fc.name << " query " << q;
      ASSERT_GE(count, 1) << fc.name << " query " << q;
    }
  }
}

TEST(WallFieldEquivalenceTest, ClampedWallsArePresent) {
  // The long_clamped case must really contain walls cut short by the
  // border, or it would not test them.
  const FieldCase& fc = kFields[2];
  Rng gen(11);
  auto field =
      WallField::Generate(fc.bounds, fc.count, fc.wall_length, &gen);
  int clamped = 0;
  for (size_t i = 0; i < field->size(); ++i) {
    if (field->wall(i).segment.Length() < fc.wall_length - 1e-9) ++clamped;
  }
  EXPECT_GT(clamped, 100);
}

TEST(WallFieldEquivalenceTest, FirstHitMatchesBruteForce) {
  for (const FieldCase& fc : kFields) {
    Rng gen(31);
    auto field = WallField::Generate(fc.bounds, fc.count, fc.wall_length,
                                     &gen);
    Rng rng(32);
    int hits = 0;
    for (int q = 0; q < fc.hit_queries; ++q) {
      const Vec2 start = PickPoint(&rng, fc.bounds);
      // Axis-aligned headings as Manhattan People uses, and arbitrary ones.
      Vec2 dir;
      if (q % 2 == 0) {
        const Vec2 axes[] = {{1.0, 0.0}, {-1.0, 0.0}, {0.0, 1.0}, {0.0, -1.0}};
        dir = axes[rng.NextBounded(4)];
      } else {
        const double angle = rng.NextDouble(0.0, 6.283185307179586);
        dir = Vec2{std::cos(angle), std::sin(angle)};
      }
      const double max_dist = rng.NextDouble(0.0, 3.0 * fc.wall_length);
      const double radius = q % 5 == 0 ? 0.0 : rng.NextDouble(0.0, 3.0);
      const auto got = field->FirstHit(start, dir, max_dist, radius);
      const auto want = BruteFirstHit(*field, start, dir, max_dist, radius);
      ASSERT_EQ(got.has_value(), want.has_value()) << fc.name << " query "
                                                   << q;
      if (!got.has_value()) continue;
      ++hits;
      ASSERT_EQ(got->first, want->first) << fc.name << " query " << q;
      ASSERT_EQ(got->second, want->second) << fc.name << " query " << q;
    }
    EXPECT_GT(hits, 0) << fc.name;
  }
}

TEST(WallFieldEquivalenceTest, FirstHitTieGoesToLowestIndex) {
  // Starting inside several walls' reach, every one of them is hit at
  // distance 0; the answer must be the lowest index among them, wherever
  // the walls are binned.
  Rng gen(41);
  auto field = WallField::Generate(Bounds(), 100000, 10.0, &gen);
  Rng rng(42);
  int ties = 0;
  for (int q = 0; q < 200; ++q) {
    const Vec2 start{rng.NextDouble(50.0, 950.0),
                     rng.NextDouble(50.0, 950.0)};
    const double radius = 6.0;
    size_t lowest = std::numeric_limits<size_t>::max();
    int touching = 0;
    for (size_t i = 0; i < field->size(); ++i) {
      if (CircleIntersectsSegment(start, radius, field->wall(i).segment)) {
        if (touching++ == 0) lowest = i;
      }
    }
    const auto hit = field->FirstHit(start, {1.0, 0.0}, 5.0, radius);
    if (touching == 0) continue;
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->first, 0.0);
    EXPECT_EQ(hit->second, lowest) << "query " << q;
    if (touching > 1) ++ties;
  }
  EXPECT_GT(ties, 100);
}

// ---- Memo: every answer equals the uncached brute force ------------------

// Compares one CountNear answer against the brute-force count.
void ExpectCount(const WallField& field, Vec2 center, double radius,
                 const char* what) {
  ASSERT_EQ(field.CountNear(center, radius),
            BruteCount(field, center, radius))
      << what << " center (" << center.x << ", " << center.y << ") radius "
      << radius;
}

// Compares one FirstHit answer (hit or not, distance, wall) against brute
// force.
void ExpectHit(const WallField& field, Vec2 start, Vec2 dir, double max_dist,
               double radius, const char* what) {
  const auto got = field.FirstHit(start, dir, max_dist, radius);
  const auto want = BruteFirstHit(field, start, dir, max_dist, radius);
  ASSERT_EQ(got, want) << what << " start (" << start.x << ", " << start.y
                       << ") dir (" << dir.x << ", " << dir.y
                       << ") max_dist " << max_dist << " radius " << radius;
}

TEST(WallFieldMemoTest, RepeatedQueriesMatchFirstCallAndBruteForce) {
  Rng gen(51);
  auto field = WallField::Generate(Bounds(), 20000, 10.0, &gen);
  Rng rng(52);
  for (int q = 0; q < 200; ++q) {
    const Vec2 center = PickPoint(&rng, Bounds());
    const double radius = PickRadius(&rng, q);
    const int first = field->CountNear(center, radius);
    ASSERT_EQ(first, BruteCount(*field, center, radius)) << "query " << q;
    const Vec2 dir{1.0, 0.0};
    const auto first_hit = field->FirstHit(center, dir, 25.0, 0.5);
    ASSERT_EQ(first_hit, BruteFirstHit(*field, center, dir, 25.0, 0.5))
        << "query " << q;
    // Seven evaluations per move: each repeat is a memo hit.
    for (int r = 0; r < 7; ++r) {
      ASSERT_EQ(field->CountNear(center, radius), first) << "query " << q;
      ASSERT_EQ(field->FirstHit(center, dir, 25.0, 0.5), first_hit)
          << "query " << q;
    }
  }
}

TEST(WallFieldMemoTest, CollisionsAndEvictionsStayExact) {
  // Far more distinct keys than memo slots, each interleaved with a
  // re-query of an earlier key: some re-queries hit, the rest find their
  // slot taken by a colliding key and recompute. Every answer is checked
  // against brute force one by one. A sparse field keeps the brute-force
  // reference cheap enough for tens of thousands of queries.
  Rng gen(61);
  auto field = WallField::Generate(Bounds(), 400, 40.0, &gen);
  Rng rng(62);
  struct Query {
    Vec2 center;
    double radius;
    Vec2 dir;
    double max_dist;
  };
  std::vector<Query> seen;
  for (int q = 0; q < 20000; ++q) {
    Query fresh{PickPoint(&rng, Bounds()), PickRadius(&rng, q), {},
                rng.NextDouble(0.0, 120.0)};
    const double angle = rng.NextDouble(0.0, 6.283185307179586);
    fresh.dir = Vec2{std::cos(angle), std::sin(angle)};
    seen.push_back(fresh);
    ExpectCount(*field, fresh.center, fresh.radius, "fresh");
    ExpectHit(*field, fresh.center, fresh.dir, fresh.max_dist, 1.0, "fresh");
    // Recent keys mostly still sit in their slot; old ones were evicted.
    const size_t back = q % 2 == 0
                            ? rng.NextBounded(std::min<size_t>(seen.size(), 8))
                            : rng.NextBounded(seen.size());
    const Query& again = seen[seen.size() - 1 - back];
    ExpectCount(*field, again.center, again.radius, "again");
    ExpectHit(*field, again.center, again.dir, again.max_dist, 1.0, "again");
    if (HasFatalFailure()) return;
  }
}

TEST(WallFieldMemoTest, SameCenterOtherRadiusOrDistanceIsANewKey) {
  // Keys that differ in one argument only: the same centre with 3000
  // radii, the same sweep with 3000 max_dists, and so on for every other
  // argument. 3000 keys in 1024 slots must share slots, so a memo that
  // compared only part of its key would return a neighbour's answer. A
  // sparse field keeps the brute-force reference cheap; two passes make
  // the second one meet whatever the first left in each slot.
  Rng gen(71);
  auto field = WallField::Generate(Bounds(), 300, 40.0, &gen);
  constexpr int kKeys = 3000;
  const Vec2 center{500.0, 500.0};
  const Vec2 dir{0.6, 0.8};
  auto step = [](int i, double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(i) / kKeys;
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kKeys; ++i) {
      ExpectCount(*field, center, step(i, 0.0, 300.0), "radius");
      ExpectCount(*field, {step(i, 0.0, 1000.0), center.y}, 40.0, "x");
      ExpectCount(*field, {center.x, step(i, 0.0, 1000.0)}, 40.0, "y");
      ExpectHit(*field, center, dir, step(i, 0.0, 400.0), 1.0, "max_dist");
      ExpectHit(*field, center, dir, 200.0, step(i, 0.0, 30.0), "radius");
      ExpectHit(*field, {step(i, 0.0, 1000.0), center.y}, dir, 200.0, 1.0,
                "start.x");
      ExpectHit(*field, {center.x, step(i, 0.0, 1000.0)}, dir, 200.0, 1.0,
                "start.y");
      ExpectHit(*field, center, {step(i, -1.0, 1.0), 0.8}, 200.0, 1.0,
                "dir.x");
      ExpectHit(*field, center, {0.6, step(i, -1.0, 1.0)}, 200.0, 1.0,
                "dir.y");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(WallFieldMemoTest, CachedNoHitAndTieWinner) {
  Rng gen(41);
  auto field = WallField::Generate(Bounds(), 100000, 10.0, &gen);
  Rng rng(42);
  int ties = 0;
  int misses = 0;
  for (int q = 0; q < 100; ++q) {
    const Vec2 start{rng.NextDouble(50.0, 950.0),
                     rng.NextDouble(50.0, 950.0)};
    // Inside several walls' reach: a tie at distance 0, lowest index wins.
    const auto tie = field->FirstHit(start, {1.0, 0.0}, 5.0, 6.0);
    ASSERT_EQ(tie, BruteFirstHit(*field, start, {1.0, 0.0}, 5.0, 6.0));
    if (tie.has_value() && tie->first == 0.0) ++ties;
    // A zero-length, zero-radius sweep almost never touches a wall.
    const auto none = field->FirstHit(start, {0.0, 1.0}, 0.0, 0.0);
    ASSERT_EQ(none, BruteFirstHit(*field, start, {0.0, 1.0}, 0.0, 0.0));
    if (!none.has_value()) ++misses;
    for (int r = 0; r < 3; ++r) {
      ASSERT_EQ(field->FirstHit(start, {1.0, 0.0}, 5.0, 6.0), tie);
      ASSERT_EQ(field->FirstHit(start, {0.0, 1.0}, 0.0, 0.0), none);
    }
  }
  EXPECT_GT(ties, 50);
  EXPECT_GT(misses, 50);
}

TEST(WallFieldMemoTest, SignedZeroArgumentsAreExact) {
  // A dense world centred on the origin. Queries at +0.0 and -0.0 have
  // different key bits: each must give the brute-force answer, whichever
  // of them filled the slot first.
  Rng gen(81);
  auto field = WallField::Generate(AABB{{-50.0, -50.0}, {50.0, 50.0}}, 2000,
                                   5.0, &gen);
  for (const double y : {0.0, -0.0, 12.5}) {
    for (const double x : {0.0, -0.0, 0.0, -0.0}) {
      for (const double radius : {0.0, -0.0, 2.0}) {
        ExpectCount(*field, {x, y}, radius, "signed zero");
        ExpectHit(*field, {x, y}, {-0.0, 1.0}, 10.0, radius, "signed zero");
        ExpectHit(*field, {x, y}, {0.0, -1.0}, 10.0, radius, "signed zero");
        ExpectHit(*field, {x, y}, {1.0, 0.0}, -0.0, radius, "signed zero");
      }
    }
  }
}

TEST(WallFieldTest, GeneratesRequestedCount) {
  Rng rng(1);
  auto field = WallField::Generate(Bounds(), 500, 10.0, &rng);
  EXPECT_EQ(field->size(), 500u);
  EXPECT_EQ(field->bounds().max, Vec2(1000.0, 1000.0));
}

TEST(WallFieldTest, ZeroWalls) {
  Rng rng(1);
  auto field = WallField::Generate(Bounds(), 0, 10.0, &rng);
  EXPECT_EQ(field->size(), 0u);
  EXPECT_EQ(field->CountNear({500.0, 500.0}, 100.0), 0);
  EXPECT_FALSE(
      field->FirstHit({0.0, 0.0}, {1.0, 0.0}, 100.0, 1.0).has_value());
}

TEST(WallFieldTest, WallsAreAxisAlignedAndInBounds) {
  Rng rng(2);
  auto field = WallField::Generate(Bounds(), 200, 10.0, &rng);
  for (size_t i = 0; i < field->size(); ++i) {
    const Segment& s = field->wall(i).segment;
    EXPECT_TRUE(s.a.x == s.b.x || s.a.y == s.b.y) << "wall " << i;
    EXPECT_TRUE(Bounds().Contains(s.a));
    EXPECT_TRUE(Bounds().Contains(s.b));
    EXPECT_LE(s.Length(), 10.0 + 1e-9);
  }
}

TEST(WallFieldTest, DeterministicForSeed) {
  Rng rng1(42), rng2(42);
  auto f1 = WallField::Generate(Bounds(), 100, 10.0, &rng1);
  auto f2 = WallField::Generate(Bounds(), 100, 10.0, &rng2);
  for (size_t i = 0; i < f1->size(); ++i) {
    EXPECT_EQ(f1->wall(i).segment.a, f2->wall(i).segment.a);
    EXPECT_EQ(f1->wall(i).segment.b, f2->wall(i).segment.b);
  }
}

TEST(WallFieldTest, DensityScalesWithCount) {
  Rng rng(4);
  auto sparse = WallField::Generate(Bounds(), 1000, 10.0, &rng);
  auto dense = WallField::Generate(Bounds(), 10000, 10.0, &rng);
  const int sparse_count = sparse->CountNear({500.0, 500.0}, 100.0);
  const int dense_count = dense->CountNear({500.0, 500.0}, 100.0);
  EXPECT_GT(dense_count, sparse_count * 5);
}

TEST(WallFieldTest, FirstHitFindsNearestWall) {
  Rng rng(1);
  auto field = WallField::Generate(Bounds(), 0, 10.0, &rng);
  // No generated walls; use a dedicated field with known walls via a
  // dense generation and a straight probe instead: place the probe so it
  // cannot miss — fall back to checking consistency of FirstHit with
  // CountNear on a dense field.
  auto dense = WallField::Generate(Bounds(), 50000, 10.0, &rng);
  const auto hit =
      dense->FirstHit({500.0, 500.0}, {1.0, 0.0}, 200.0, 0.5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_GE(hit->first, 0.0);
  EXPECT_LE(hit->first, 200.0);
  EXPECT_LT(hit->second, dense->size());
  // The returned wall really is within contact range at the hit point.
  const Vec2 contact = Vec2{500.0, 500.0} + Vec2{1.0, 0.0} * hit->first;
  EXPECT_LE(DistancePointSegment(contact, dense->wall(hit->second).segment),
            0.5 + 1e-6);
}

}  // namespace
}  // namespace seve
