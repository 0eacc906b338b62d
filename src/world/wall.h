#ifndef SEVE_WORLD_WALL_H_
#define SEVE_WORLD_WALL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "spatial/aabb.h"
#include "spatial/geometry.h"

namespace seve {

/// One wall: an axis-aligned segment (Manhattan People's obstacles).
struct Wall {
  Segment segment;
};

/// The immutable obstacle layer of a Manhattan People world: up to
/// 100,000 axis-aligned walls in a static cell layout.
///
/// Walls never change, so a single WallField is shared (by const pointer)
/// between the server, all simulated clients, and every MoveAction —
/// exactly like the static obstruction data every real client ships with.
///
/// Layout: each wall is binned into exactly one grid cell, the one that
/// holds its midpoint, and the cells are stored row-major in CSR form
/// (`cell_begin_` offsets into cell-ordered segments and wall ids). A wall
/// reaches at most `max_half_length_` past its midpoint, so a query pads
/// its cell range by that much instead of storing a wall in every cell it
/// crosses. `CountNear` adds whole runs of cells that lie inside the
/// circle with one offset subtraction and tests segments only in the
/// cells on the circle's rim.
///
/// Memo: every replica that evaluates a move asks the same two questions
/// at the same position, so each query keeps a fixed direct-mapped table
/// of its recent answers (kMemoSlots slots, allocated once by Generate).
/// The key is the exact bit pattern of every argument and the walls never
/// change, so a query is a pure function of its key: a hit returns what
/// the kernel would compute, bit for bit, including FirstHit's "no hit"
/// and its lowest-index tie winner. A miss runs the kernel and overwrites
/// the slot. Keys that differ only in the sign of a zero or in a NaN's
/// payload are distinct keys, each computed by the kernel.
///
/// Contract: the field is logically immutable, but the memo makes its
/// const queries write. One field belongs to one run (one ManhattanWorld)
/// and is never queried from two threads at once.
class WallField {
 public:
  /// Generates `count` axis-aligned walls of `wall_length`, uniformly
  /// placed in `bounds` (alternating horizontal/vertical orientation).
  static std::shared_ptr<const WallField> Generate(const AABB& bounds,
                                                   int count,
                                                   double wall_length,
                                                   Rng* rng);

  const AABB& bounds() const { return bounds_; }
  size_t size() const { return walls_.size(); }
  const Wall& wall(size_t i) const { return walls_[i]; }

  /// Number of walls within `radius` of `center` — the "visible walls"
  /// count driving per-move CPU cost. Exactly the number of walls for
  /// which CircleIntersectsSegment(center, radius, wall) holds. Memoized.
  int CountNear(Vec2 center, double radius) const;

  /// First wall hit by a circle of `radius` moving from `start` along
  /// `dir` for `max_dist`; returns (travel distance, wall index). Among
  /// walls hit at the same distance, the lowest index wins. Memoized.
  std::optional<std::pair<double, size_t>> FirstHit(Vec2 start, Vec2 dir,
                                                    double max_dist,
                                                    double radius) const;

 private:
  using HitResult = std::optional<std::pair<double, size_t>>;

  /// Memo table size per query; a power of two. Small on purpose: at
  /// this size ~96% of paper_table1's counts already hit (EXPERIMENTS.md,
  /// "Host clock — wall-query memo"); more slots only cost memory.
  static constexpr size_t kMemoSlots = 1024;

  /// One memo entry: the argument bits and the answer computed for them.
  template <size_t N, typename Result>
  struct MemoSlot {
    std::array<uint64_t, N> key{};
    Result result{};
    bool used = false;
  };

  explicit WallField(const AABB& bounds) : bounds_(bounds) {}

  /// The uncached kernels behind CountNear / FirstHit.
  int CountNearKernel(Vec2 center, double radius) const;
  HitResult FirstHitKernel(Vec2 start, Vec2 dir, double max_dist,
                           double radius) const;

  /// Bins `walls_` into the cell layout; the last step of Generate.
  void BuildLayout();

  /// Column / row of the cell holding `x` / `y`, clamped to the grid.
  int CellX(double x) const;
  int CellY(double y) const;

  /// Slack for floating-point rounding in the cell classification: it
  /// grows with the magnitudes a query works with, and only ever moves a
  /// cell from the bulk-counted or skipped class to the exact test.
  double Margin(Vec2 center, double radius) const;

  AABB bounds_;
  std::vector<Wall> walls_;

  double cell_size_ = 1.0;
  double max_half_length_ = 0.0;
  int nx_ = 1;
  int ny_ = 1;
  std::vector<uint32_t> cell_begin_;    // nx_ * ny_ + 1 offsets
  std::vector<Segment> cell_segments_;  // walls in cell order
  std::vector<uint32_t> cell_wall_ids_; // index into walls_, per slot

  // kMemoSlots entries each, sized once in BuildLayout.
  mutable std::vector<MemoSlot<3, int>> count_memo_;
  mutable std::vector<MemoSlot<6, HitResult>> hit_memo_;
};

}  // namespace seve

#endif  // SEVE_WORLD_WALL_H_
