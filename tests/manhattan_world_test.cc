#include "world/manhattan_world.h"

#include <vector>

#include <gtest/gtest.h>

#include "world/attrs.h"

namespace seve {
namespace {

WorldConfig SmallConfig() {
  WorldConfig cfg;
  cfg.bounds = AABB{{0.0, 0.0}, {200.0, 200.0}};
  cfg.num_walls = 100;
  cfg.num_avatars = 10;
  return cfg;
}

TEST(ManhattanWorldTest, InitialStateHasAllAvatars) {
  ManhattanWorld world(SmallConfig(), 1);
  const WorldState& state = world.InitialState();
  EXPECT_EQ(state.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    const Object* avatar = state.Find(ManhattanWorld::AvatarId(i));
    ASSERT_NE(avatar, nullptr);
    const Vec2 pos = avatar->Get(kAttrPosition).AsVec2();
    EXPECT_TRUE(world.config().bounds.Contains(pos));
    const Vec2 dir = avatar->Get(kAttrDirection).AsVec2();
    EXPECT_DOUBLE_EQ(std::abs(dir.x) + std::abs(dir.y), 1.0);  // axis move
    EXPECT_DOUBLE_EQ(avatar->Get(kAttrHealth).AsDouble(), 100.0);
  }
}

TEST(ManhattanWorldTest, DeterministicForSeed) {
  ManhattanWorld a(SmallConfig(), 7);
  ManhattanWorld b(SmallConfig(), 7);
  EXPECT_EQ(a.InitialState().Digest(), b.InitialState().Digest());
  ManhattanWorld c(SmallConfig(), 8);
  EXPECT_NE(a.InitialState().Digest(), c.InitialState().Digest());
}

TEST(ManhattanWorldTest, GridSpawnHonoursSpacing) {
  WorldConfig cfg = SmallConfig();
  cfg.spawn.pattern = SpawnConfig::Pattern::kGrid;
  cfg.spawn.grid_spacing = 4.0;
  cfg.num_avatars = 9;  // 3x3 grid
  ManhattanWorld world(cfg, 1);
  const WorldState& state = world.InitialState();
  const Vec2 p0 = state.GetAttr(ManhattanWorld::AvatarId(0),
                                kAttrPosition).AsVec2();
  const Vec2 p1 = state.GetAttr(ManhattanWorld::AvatarId(1),
                                kAttrPosition).AsVec2();
  EXPECT_NEAR(Distance(p0, p1), 4.0, 1e-9);
}

TEST(ManhattanWorldTest, UniformSpawnSpreadsOut) {
  WorldConfig cfg = SmallConfig();
  cfg.spawn.pattern = SpawnConfig::Pattern::kUniform;
  cfg.num_avatars = 50;
  ManhattanWorld world(cfg, 3);
  // Mean pairwise distance should be a sizable fraction of the world.
  const WorldState& state = world.InitialState();
  double sum = 0.0;
  int pairs = 0;
  for (int i = 0; i < 50; ++i) {
    for (int j = i + 1; j < 50; ++j) {
      sum += Distance(
          state.GetAttr(ManhattanWorld::AvatarId(i), kAttrPosition).AsVec2(),
          state.GetAttr(ManhattanWorld::AvatarId(j), kAttrPosition).AsVec2());
      ++pairs;
    }
  }
  EXPECT_GT(sum / pairs, 50.0);
}

TEST(ManhattanWorldTest, ClusteredSpawnIsDenserThanUniform) {
  WorldConfig uniform_cfg = SmallConfig();
  uniform_cfg.bounds = AABB{{0.0, 0.0}, {1000.0, 1000.0}};
  uniform_cfg.num_avatars = 64;
  uniform_cfg.spawn.pattern = SpawnConfig::Pattern::kUniform;
  WorldConfig cluster_cfg = uniform_cfg;
  cluster_cfg.spawn.pattern = SpawnConfig::Pattern::kClustered;

  ManhattanWorld uniform(uniform_cfg, 5);
  ManhattanWorld clustered(cluster_cfg, 5);
  auto avg_visible = [](const ManhattanWorld& world) {
    const WorldState& state = world.InitialState();
    double total = 0.0;
    for (int i = 0; i < world.config().num_avatars; ++i) {
      const ObjectId id = ManhattanWorld::AvatarId(i);
      total += world.CountAvatarsNear(
          state, state.GetAttr(id, kAttrPosition).AsVec2(), 30.0, id);
    }
    return total / world.config().num_avatars;
  };
  EXPECT_GT(avg_visible(clustered), 3.0 * avg_visible(uniform) + 0.5);
}

TEST(ManhattanWorldTest, MakeMoveDeclaresNearbyAvatars) {
  WorldConfig cfg = SmallConfig();
  cfg.spawn.pattern = SpawnConfig::Pattern::kGrid;
  cfg.spawn.grid_spacing = 4.0;
  cfg.num_avatars = 9;
  cfg.move_effect_range = 10.0;
  ManhattanWorld world(cfg, 1);

  auto move = world.MakeMove(ActionId(1), ClientId(4), 4, 0,
                             world.InitialState(), 300000);
  // Center avatar of a 3x3 grid with spacing 4: everyone is within the
  // declared range (10 + step + diameter).
  EXPECT_EQ(move->ReadSet().size(), 9u);
  EXPECT_EQ(move->WriteSet(), ObjectSet({ManhattanWorld::AvatarId(4)}));
  EXPECT_TRUE(move->ReadSet().Covers(move->WriteSet()));
}

TEST(ManhattanWorldTest, MakeMoveInterestProfile) {
  ManhattanWorld world(SmallConfig(), 2);
  auto move = world.MakeMove(ActionId(1), ClientId(0), 0, 5,
                             world.InitialState(), 300000);
  const InterestProfile profile = move->Interest();
  EXPECT_EQ(profile.radius, world.config().move_effect_range);
  EXPECT_NEAR(profile.velocity.Length(), world.config().speed, 1e-9);
  EXPECT_EQ(move->tick(), 5);
  // Step = speed * period.
  EXPECT_NEAR(move->step(), world.config().speed * 0.3, 1e-9);
}

TEST(ManhattanWorldTest, CountAvatarsNearExcludes) {
  ManhattanWorld world(SmallConfig(), 1);
  const WorldState& state = world.InitialState();
  const ObjectId self = ManhattanWorld::AvatarId(0);
  const Vec2 pos = state.GetAttr(self, kAttrPosition).AsVec2();
  const int with_self =
      world.CountAvatarsNear(state, pos, 500.0, ObjectId::Invalid());
  const int without_self = world.CountAvatarsNear(state, pos, 500.0, self);
  EXPECT_EQ(with_self, without_self + 1);
}

// The per-id loop the one-pass scan replaced: the reference for
// CountAvatarsNear and MakeMove's read set.
std::vector<ObjectId> AvatarsNearByIdLoop(const ManhattanWorld& world,
                                          const WorldState& state, Vec2 pos,
                                          double range, ObjectId exclude) {
  std::vector<ObjectId> near;
  for (int i = 0; i < world.config().num_avatars; ++i) {
    const ObjectId id = ManhattanWorld::AvatarId(i);
    if (id == exclude) continue;
    const Object* obj = state.Find(id);
    if (obj == nullptr) continue;
    if (DistanceSq(obj->Get(kAttrPosition).AsVec2(), pos) <= range * range) {
      near.push_back(id);
    }
  }
  return near;
}

TEST(ManhattanWorldTest, OnePassAvatarScanMatchesPerIdLoop) {
  WorldConfig cfg = SmallConfig();
  cfg.bounds = AABB{{0.0, 0.0}, {60.0, 60.0}};
  cfg.num_avatars = 40;
  cfg.spawn.pattern = SpawnConfig::Pattern::kUniform;
  cfg.move_effect_range = 12.0;
  ManhattanWorld world(cfg, 9);

  // Variants of the initial state: as built; with avatars missing; with
  // extra objects, at avatar positions, whose ids lie past num_avatars
  // (and id 0, which no avatar has); and both together.
  WorldState missing = world.InitialState();
  for (int i = 0; i < cfg.num_avatars; i += 3) {
    ASSERT_TRUE(missing.Remove(ManhattanWorld::AvatarId(i)).ok());
  }
  WorldState extra = world.InitialState();
  for (int i = 0; i < cfg.num_avatars; ++i) {
    const Value& pos = extra.GetAttr(ManhattanWorld::AvatarId(i),
                                     kAttrPosition);
    extra.SetAttr(ObjectId(static_cast<uint64_t>(cfg.num_avatars + 1 + i)),
                  kAttrPosition, pos);
  }
  extra.SetAttr(ObjectId(0), kAttrPosition, Value(Vec2{30.0, 30.0}));
  WorldState both = missing;
  both.ApplyObjects(extra.Extract(ObjectSet(extra.ObjectIds())));
  for (int i = 0; i < cfg.num_avatars; i += 3) {
    ASSERT_TRUE(both.Remove(ManhattanWorld::AvatarId(i)).ok());
  }
  ASSERT_GT(both.size(), missing.size());

  const WorldState* states[] = {&world.InitialState(), &missing, &extra,
                                &both};
  Rng rng(10);
  int crowded = 0;
  for (const WorldState* state : states) {
    for (int q = 0; q < 200; ++q) {
      const Vec2 pos{rng.NextDouble(-5.0, 65.0), rng.NextDouble(-5.0, 65.0)};
      const double range = rng.NextDouble(0.0, 25.0);
      // Excluded: none, an avatar, or an id past the last avatar.
      const uint64_t pick =
          rng.NextBounded(static_cast<uint64_t>(cfg.num_avatars + 2));
      const ObjectId exclude =
          q % 3 == 0 ? ObjectId::Invalid()
                     : ManhattanWorld::AvatarId(static_cast<int>(pick));
      const std::vector<ObjectId> want =
          AvatarsNearByIdLoop(world, *state, pos, range, exclude);
      ASSERT_EQ(world.CountAvatarsNear(*state, pos, range, exclude),
                static_cast<int>(want.size()))
          << "query " << q;
      if (want.size() > 1) ++crowded;
    }
    // MakeMove's read set: the mover plus every other avatar within the
    // effect range of its position in the view.
    for (int i = 0; i < cfg.num_avatars; ++i) {
      const ObjectId mover = ManhattanWorld::AvatarId(i);
      if (!state->Contains(mover)) continue;
      auto move = world.MakeMove(ActionId(1), ClientId(0), i, 0, *state,
                                 300000);
      std::vector<ObjectId> want = AvatarsNearByIdLoop(
          world, *state, state->GetAttr(mover, kAttrPosition).AsVec2(),
          cfg.move_effect_range, mover);
      want.push_back(mover);
      EXPECT_EQ(move->ReadSet(), ObjectSet(want)) << "mover " << i;
    }
  }
  EXPECT_GT(crowded, 100);
}

TEST(ManhattanWorldTest, MoveCostGrowsWithWallDensity) {
  WorldConfig sparse = SmallConfig();
  sparse.num_walls = 10;
  WorldConfig dense = SmallConfig();
  dense.num_walls = 2000;
  ManhattanWorld sparse_world(sparse, 1);
  ManhattanWorld dense_world(dense, 1);
  CostModel cost;
  const Vec2 center{100.0, 100.0};
  const WorldState& view = dense_world.InitialState();
  EXPECT_GT(dense_world.MoveCostAt(view, center, cost),
            sparse_world.MoveCostAt(sparse_world.InitialState(), center,
                                    cost));

  // Walls are priced out to visibility x wall_check_radius_factor, the
  // radius the simulator charges; avatars out to visibility.
  const double visibility = dense.visibility;
  const int avatars =
      dense_world.CountAvatarsNear(view, center, visibility,
                                   ObjectId::Invalid());
  for (const double factor : {1.0, 1.9, 2.5}) {
    cost.wall_check_radius_factor = factor;
    EXPECT_EQ(dense_world.MoveCostAt(view, center, cost),
              cost.MoveCost(
                  dense_world.CountWallsNear(center, visibility * factor),
                  avatars))
        << "factor " << factor;
  }
  CostModel narrow;
  narrow.wall_check_radius_factor = 1.0;
  CostModel wide;
  wide.wall_check_radius_factor = 1.9;
  EXPECT_GT(dense_world.MoveCostAt(view, center, wide),
            dense_world.MoveCostAt(view, center, narrow));
}

TEST(CostModelTest, MoveCostFormula) {
  CostModel cost;
  cost.move_base_us = 100;
  cost.per_wall_us = 7.0;
  cost.per_avatar_us = 50.0;
  EXPECT_EQ(cost.MoveCost(0, 0), 100);
  EXPECT_EQ(cost.MoveCost(1000, 0), 7100);
  EXPECT_EQ(cost.MoveCost(1000, 10), 7600);
}

TEST(CostModelTest, PaperCalibration) {
  // Table-I configuration: the per-move cost should land near the
  // paper's measured 7.44 ms (with ~1000 checked walls and ~7 avatars).
  CostModel cost;
  const Micros move = cost.MoveCost(1000, 7);
  EXPECT_GT(move, 6500);
  EXPECT_LT(move, 8500);
}

}  // namespace
}  // namespace seve
