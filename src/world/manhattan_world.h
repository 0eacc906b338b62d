#ifndef SEVE_WORLD_MANHATTAN_WORLD_H_
#define SEVE_WORLD_MANHATTAN_WORLD_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "spatial/aabb.h"
#include "store/world_state.h"
#include "world/cost_model.h"
#include "world/move_action.h"
#include "world/wall.h"

namespace seve {

/// How avatars are initially placed. The paper's Figure-6 runs exhibit
/// clustering ("humans are social beings, so avatars can be expected to
/// form clusters"); its Figure-8 runs place avatars 4 units apart.
struct SpawnConfig {
  enum class Pattern { kUniform, kGrid, kClustered };
  Pattern pattern = Pattern::kClustered;
  /// kGrid: spacing between adjacent avatars.
  double grid_spacing = 4.0;
  /// kClustered: number of cluster centers and per-cluster spread.
  /// Defaults calibrated so the Table-I run averages ~6.9 visible avatars
  /// (the paper's empirically determined 6.87).
  int clusters = 6;
  double cluster_sigma = 15.0;
  /// Staged placement (the workload zoo, sim/workloads): when non-empty,
  /// avatar i spawns at explicit_positions[i % size] (clamped to bounds)
  /// instead of the procedural pattern. explicit_directions[i] likewise
  /// overrides the random initial heading for i < size. Spawn-rng draws
  /// are skipped for overridden fields, so appending avatars never
  /// perturbs earlier ones.
  std::vector<Vec2> explicit_positions;
  std::vector<Vec2> explicit_directions;
};

/// Full parameterization of a Manhattan People world (Table I defaults).
struct WorldConfig {
  AABB bounds{{0.0, 0.0}, {1000.0, 1000.0}};
  int num_walls = 100000;
  double wall_length = 10.0;
  int num_avatars = 64;
  double avatar_radius = 0.5;
  /// Maximum rate of change of position, the paper's `s` (units/second).
  double speed = 10.0;
  /// Maximum radius of influence of a move, the paper's rA = rC
  /// ("Move effect range", Table I: 10 units).
  double move_effect_range = 10.0;
  /// Avatar visibility (Table I: 30 units); drives per-move cost and the
  /// RING baseline's filter.
  double visibility = 30.0;
  /// Declare only the mover's own avatar as the read set instead of the
  /// O(num_avatars) neighbourhood scan — the six-figure-population regime
  /// switch (conflicts degrade to per-avatar chains; routing still fans
  /// out through interest profiles).
  bool sparse_reads = false;
  SpawnConfig spawn;
};

/// The synthetic virtual world of Section V: avatars moving about a
/// rectangular area, colliding with walls and each other, turning 90° on
/// every bump. Owns the wall field and builds the initial world state;
/// acts as the action factory for clients.
class ManhattanWorld {
 public:
  ManhattanWorld(const WorldConfig& config, uint64_t seed);

  const WorldConfig& config() const { return config_; }
  const std::shared_ptr<const WallField>& walls() const { return walls_; }

  /// Object id of the avatar driven by the index-th client.
  static ObjectId AvatarId(int index) {
    return ObjectId(static_cast<uint64_t>(index) + 1);
  }

  /// The initial world state: every avatar placed per SpawnConfig with a
  /// random axis-aligned direction. All replicas start from this state.
  const WorldState& InitialState() const { return initial_state_; }

  /// Builds a move for `client` (driving avatar `avatar_index`) from its
  /// current view of the world. The declared read set conservatively
  /// includes every avatar within effect range + one step of the mover.
  std::shared_ptr<const MoveAction> MakeMove(ActionId id, ClientId client,
                                             int avatar_index, Tick tick,
                                             const WorldState& view,
                                             Micros period) const;

  /// Avatars (other than `exclude`) within `range` of `pos` in `state`.
  int CountAvatarsNear(const WorldState& state, Vec2 pos, double range,
                       ObjectId exclude) const;

  /// Walls within `range` of `pos`.
  int CountWallsNear(Vec2 pos, double range) const;

  /// CPU cost of evaluating one move submitted at `pos` given `view`:
  /// walls within visibility × `cost.wall_check_radius_factor` and
  /// avatars within visibility, priced by `cost`.
  Micros MoveCostAt(const WorldState& view, Vec2 pos,
                    const CostModel& cost) const;

 private:
  WorldConfig config_;
  std::shared_ptr<const WallField> walls_;
  WorldState initial_state_;
};

}  // namespace seve

#endif  // SEVE_WORLD_MANHATTAN_WORLD_H_
