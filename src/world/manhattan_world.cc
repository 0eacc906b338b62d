#include "world/manhattan_world.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "world/attrs.h"

namespace seve {
namespace {

Vec2 AxisAlignedDirection(Rng* rng) {
  switch (rng->NextBounded(4)) {
    case 0:
      return {1.0, 0.0};
    case 1:
      return {-1.0, 0.0};
    case 2:
      return {0.0, 1.0};
    default:
      return {0.0, -1.0};
  }
}

// Calls fn(id) for every avatar of `state` other than `exclude` whose
// position lies within `range` of `pos`. Avatars are the ids
// AvatarId(0..num_avatars-1); other objects are skipped. One pass over
// the state's objects instead of one lookup per avatar id.
template <typename Fn>
void ForEachAvatarNear(const WorldState& state, int num_avatars, Vec2 pos,
                       double range, ObjectId exclude, Fn&& fn) {
  const uint64_t last = static_cast<uint64_t>(std::max(num_avatars, 0));
  state.ForEachObject([&](ObjectId id, const Object& obj) {
    if (id == exclude || id.value() < 1 || id.value() > last) return;
    if (DistanceSq(obj.Get(kAttrPosition).AsVec2(), pos) <= range * range) {
      fn(id);
    }
  });
}

}  // namespace

ManhattanWorld::ManhattanWorld(const WorldConfig& config, uint64_t seed)
    : config_(config) {
  Rng rng(seed);
  Rng wall_rng = rng.Fork(1);
  Rng spawn_rng = rng.Fork(2);

  walls_ = WallField::Generate(config_.bounds, config_.num_walls,
                               config_.wall_length, &wall_rng);

  // Place avatars.
  const AABB& b = config_.bounds;
  std::vector<Vec2> cluster_centers;
  if (config_.spawn.pattern == SpawnConfig::Pattern::kClustered) {
    const int k = std::max(1, config_.spawn.clusters);
    for (int i = 0; i < k; ++i) {
      cluster_centers.push_back({spawn_rng.NextDouble(b.min.x, b.max.x),
                                 spawn_rng.NextDouble(b.min.y, b.max.y)});
    }
  }
  const int grid_cols = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(config_.num_avatars))));

  const std::vector<Vec2>& staged = config_.spawn.explicit_positions;
  const std::vector<Vec2>& headings = config_.spawn.explicit_directions;

  for (int i = 0; i < config_.num_avatars; ++i) {
    Vec2 pos;
    if (!staged.empty()) {
      pos = staged[static_cast<size_t>(i) % staged.size()];
    } else {
      switch (config_.spawn.pattern) {
        case SpawnConfig::Pattern::kUniform:
          pos = {spawn_rng.NextDouble(b.min.x, b.max.x),
                 spawn_rng.NextDouble(b.min.y, b.max.y)};
          break;
        case SpawnConfig::Pattern::kGrid: {
          const double spacing = config_.spawn.grid_spacing;
          const int row = i / grid_cols;
          const int col = i % grid_cols;
          const Vec2 center{0.5 * (b.min.x + b.max.x),
                            0.5 * (b.min.y + b.max.y)};
          const double half = 0.5 * spacing * (grid_cols - 1);
          pos = {center.x - half + spacing * col,
                 center.y - half + spacing * row};
          break;
        }
        case SpawnConfig::Pattern::kClustered: {
          const Vec2 center = cluster_centers[static_cast<size_t>(i) %
                                              cluster_centers.size()];
          pos = {center.x +
                     spawn_rng.NextGaussian() * config_.spawn.cluster_sigma,
                 center.y +
                     spawn_rng.NextGaussian() * config_.spawn.cluster_sigma};
          break;
        }
      }
    }
    pos = b.Clamp(pos);

    const Vec2 heading = static_cast<size_t>(i) < headings.size()
                             ? headings[static_cast<size_t>(i)]
                             : AxisAlignedDirection(&spawn_rng);

    Object avatar(AvatarId(i));
    avatar.Set(kAttrPosition, Value(pos));
    avatar.Set(kAttrDirection, Value(heading));
    avatar.Set(kAttrBumps, Value(int64_t{0}));
    avatar.Set(kAttrHealth, Value(100.0));
    (void)initial_state_.Insert(std::move(avatar));
  }
}

std::shared_ptr<const MoveAction> ManhattanWorld::MakeMove(
    ActionId id, ClientId client, int avatar_index, Tick tick,
    const WorldState& view, Micros period) const {
  const ObjectId avatar = AvatarId(avatar_index);
  const Vec2 pos = view.GetAttr(avatar, kAttrPosition).AsVec2();
  const Vec2 dir = view.GetAttr(avatar, kAttrDirection).AsVec2();
  const double step =
      config_.speed * static_cast<double>(period) / kMicrosPerSecond;

  // Declared read set: avatars within the move effect range (Table I).
  // The effect range caps interaction distance — collision checks inside
  // Apply() consult exactly these declared avatars.
  const double declare_range = config_.move_effect_range;
  ObjectSet read_set({avatar});
  if (!config_.sparse_reads) {
    ForEachAvatarNear(view, config_.num_avatars, pos, declare_range, avatar,
                      [&read_set](ObjectId other) { read_set.Insert(other); });
  }

  InterestProfile interest;
  interest.position = pos;
  interest.radius = config_.move_effect_range;
  interest.velocity = dir * config_.speed;
  interest.interest_class = 1;

  return std::make_shared<MoveAction>(id, client, tick, avatar, step,
                                      config_.avatar_radius, walls_,
                                      std::move(read_set), interest);
}

int ManhattanWorld::CountAvatarsNear(const WorldState& state, Vec2 pos,
                                     double range, ObjectId exclude) const {
  int count = 0;
  ForEachAvatarNear(state, config_.num_avatars, pos, range, exclude,
                    [&count](ObjectId) { ++count; });
  return count;
}

int ManhattanWorld::CountWallsNear(Vec2 pos, double range) const {
  return walls_->CountNear(pos, range);
}

Micros ManhattanWorld::MoveCostAt(const WorldState& view, Vec2 pos,
                                  const CostModel& cost) const {
  const int visible_walls =
      CountWallsNear(pos, config_.visibility * cost.wall_check_radius_factor);
  const int visible_avatars =
      CountAvatarsNear(view, pos, config_.visibility, ObjectId::Invalid());
  return cost.MoveCost(visible_walls, visible_avatars);
}

}  // namespace seve
