#include "world/wall.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace seve {

namespace {

// Grid side cap: keeps the offset array bounded for degenerate inputs
// (tiny walls in a huge world).
constexpr double kMaxCellsPerSide = 1024.0;

// Relative rounding slack (see WallField::Margin); rounding errors in the
// distance arithmetic are a few ulps, ~1e-16 relative.
constexpr double kRelativeMargin = 1e-9;

// Distances from `c` to the nearest and the farthest point of [lo, hi].
struct AxisGap {
  double near;
  double far;
};

AxisGap GapTo(double c, double lo, double hi) {
  return {std::max({lo - c, c - hi, 0.0}), std::max(c - lo, hi - c)};
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Slot of a memo key in a power-of-two table: the key words folded by
// multiply-xor, then the murmur3 finalizer so every argument bit can
// reach the slot index.
template <size_t N>
size_t SlotOf(const std::array<uint64_t, N>& key, size_t slots) {
  uint64_t h = 0;
  for (const uint64_t k : key) h = (h ^ k) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<size_t>(h & (slots - 1));
}

// The answer for `key`: the slot's stored result when it holds exactly
// this key, otherwise compute() stored over whatever the slot held.
template <typename Slot, typename Key, typename Compute>
auto Memoized(std::vector<Slot>& memo, const Key& key, Compute&& compute) {
  Slot& slot = memo[SlotOf(key, memo.size())];
  if (!slot.used || slot.key != key) {
    slot.result = compute();
    slot.key = key;
    slot.used = true;
  }
  return slot.result;
}

}  // namespace

std::shared_ptr<const WallField> WallField::Generate(const AABB& bounds,
                                                     int count,
                                                     double wall_length,
                                                     Rng* rng) {
  // make_shared cannot reach the private constructor; ownership
  // transfers to the shared_ptr on the same line.
  // seve-lint: allow(mem-raw-new): private-ctor shared_ptr adoption
  auto field = std::shared_ptr<WallField>(new WallField(bounds));
  field->walls_.reserve(static_cast<size_t>(std::max(count, 0)));
  for (int i = 0; i < count; ++i) {
    const bool horizontal = (i % 2) == 0;
    const Vec2 a{rng->NextDouble(bounds.min.x, bounds.max.x),
                 rng->NextDouble(bounds.min.y, bounds.max.y)};
    Vec2 b = horizontal ? Vec2{a.x + wall_length, a.y}
                        : Vec2{a.x, a.y + wall_length};
    b = bounds.Clamp(b);
    field->walls_.push_back(Wall{Segment{a, b}});
  }
  field->BuildLayout();
  return field;
}

void WallField::BuildLayout() {
  double max_length = 0.0;
  for (const Wall& w : walls_) {
    max_length = std::max(max_length, w.segment.Length());
  }
  max_half_length_ = 0.5 * max_length;

  // Cell edge: the longest wall, so the query padding is at most half a
  // cell; coarser only when that would give more cells than walls, or a
  // side longer than kMaxCellsPerSide cells.
  const double width = bounds_.Width();
  const double height = bounds_.Height();
  const double walls = static_cast<double>(std::max<size_t>(walls_.size(), 1));
  cell_size_ = std::max({max_length, std::sqrt(width * height / walls),
                         std::max(width, height) / kMaxCellsPerSide});
  if (!(cell_size_ > 0.0)) cell_size_ = 1.0;  // zero-area world, zero walls
  nx_ = std::max(1, static_cast<int>(std::ceil(width / cell_size_)));
  ny_ = std::max(1, static_cast<int>(std::ceil(height / cell_size_)));

  // Counting sort by midpoint cell; walls keep index order within a cell.
  const size_t cells = static_cast<size_t>(nx_) * static_cast<size_t>(ny_);
  std::vector<uint32_t> cell_of(walls_.size());
  cell_begin_.assign(cells + 1, 0);
  for (size_t i = 0; i < walls_.size(); ++i) {
    const Segment& s = walls_[i].segment;
    const Vec2 mid = (s.a + s.b) * 0.5;
    cell_of[i] = static_cast<uint32_t>(static_cast<size_t>(CellY(mid.y)) *
                                           static_cast<size_t>(nx_) +
                                       static_cast<size_t>(CellX(mid.x)));
    ++cell_begin_[cell_of[i] + 1];
  }
  for (size_t c = 0; c < cells; ++c) cell_begin_[c + 1] += cell_begin_[c];
  std::vector<uint32_t> cursor(cell_begin_.begin(), cell_begin_.end() - 1);
  cell_segments_.resize(walls_.size());
  cell_wall_ids_.resize(walls_.size());
  for (size_t i = 0; i < walls_.size(); ++i) {
    const uint32_t slot = cursor[cell_of[i]]++;
    cell_segments_[slot] = walls_[i].segment;
    cell_wall_ids_[slot] = static_cast<uint32_t>(i);
  }

  count_memo_.assign(kMemoSlots, {});
  hit_memo_.assign(kMemoSlots, {});
}

int WallField::CellX(double x) const {
  const double rel = std::floor((x - bounds_.min.x) / cell_size_);
  return static_cast<int>(std::clamp(rel, 0.0, static_cast<double>(nx_ - 1)));
}

int WallField::CellY(double y) const {
  const double rel = std::floor((y - bounds_.min.y) / cell_size_);
  return static_cast<int>(std::clamp(rel, 0.0, static_cast<double>(ny_ - 1)));
}

double WallField::Margin(Vec2 center, double radius) const {
  return kRelativeMargin *
         (1.0 + std::abs(center.x) + std::abs(center.y) + std::abs(radius) +
          std::max({std::abs(bounds_.min.x), std::abs(bounds_.min.y),
                    std::abs(bounds_.max.x), std::abs(bounds_.max.y)}) +
          cell_size_);
}

int WallField::CountNear(Vec2 center, double radius) const {
  return Memoized(count_memo_,
                  std::array<uint64_t, 3>{Bits(center.x), Bits(center.y),
                                          Bits(radius)},
                  [&] { return CountNearKernel(center, radius); });
}

std::optional<std::pair<double, size_t>> WallField::FirstHit(
    Vec2 start, Vec2 dir, double max_dist, double radius) const {
  return Memoized(hit_memo_,
                  std::array<uint64_t, 6>{Bits(start.x), Bits(start.y),
                                          Bits(dir.x), Bits(dir.y),
                                          Bits(max_dist), Bits(radius)},
                  [&] {
                    return FirstHitKernel(start, dir, max_dist, radius);
                  });
}

int WallField::CountNearKernel(Vec2 center, double radius) const {
  // A wall touches the circle if its midpoint lies inside it, and cannot
  // if its midpoint lies farther than radius + max_half_length_. So a
  // cell wholly within `inner` of the center is counted in bulk, a cell
  // wholly beyond `reach` is skipped, and only the rest run the exact
  // test. The margin widens the exact class; the count is exact.
  const double margin = Margin(center, radius);
  const double inner = radius - margin;
  const double inner_sq = inner > 0.0 ? inner * inner : -1.0;
  const double reach = radius + max_half_length_ + margin;
  const double reach_sq = reach * reach;
  const int x0 = CellX(center.x - reach);
  const int x1 = CellX(center.x + reach);
  const int y0 = CellY(center.y - reach);
  const int y1 = CellY(center.y + reach);

  int count = 0;
  for (int cy = y0; cy <= y1; ++cy) {
    const double lo_y = bounds_.min.y + cy * cell_size_;
    const AxisGap gy = GapTo(center.y, lo_y, lo_y + cell_size_);
    const double near_y_sq = gy.near * gy.near;
    const double far_y_sq = gy.far * gy.far;
    if (near_y_sq > reach_sq) continue;
    const size_t row = static_cast<size_t>(cy) * static_cast<size_t>(nx_);
    // Interior cells of one row are contiguous (the disc is convex), and
    // so are their walls: the run adds up as one offset difference.
    bool in_run = false;
    uint32_t run_begin = 0;
    for (int cx = x0; cx <= x1; ++cx) {
      const size_t cell = row + static_cast<size_t>(cx);
      const double lo_x = bounds_.min.x + cx * cell_size_;
      const AxisGap gx = GapTo(center.x, lo_x, lo_x + cell_size_);
      if (gx.far * gx.far + far_y_sq <= inner_sq) {
        if (!in_run) {
          in_run = true;
          run_begin = cell_begin_[cell];
        }
        continue;
      }
      if (in_run) {
        count += static_cast<int>(cell_begin_[cell] - run_begin);
        in_run = false;
      }
      if (gx.near * gx.near + near_y_sq > reach_sq) continue;
      for (uint32_t i = cell_begin_[cell]; i < cell_begin_[cell + 1]; ++i) {
        if (CircleIntersectsSegment(center, radius, cell_segments_[i])) {
          ++count;
        }
      }
    }
    if (in_run) {
      const size_t row_end = row + static_cast<size_t>(x1) + 1;
      count += static_cast<int>(cell_begin_[row_end] - run_begin);
    }
  }
  return count;
}

WallField::HitResult WallField::FirstHitKernel(Vec2 start, Vec2 dir,
                                              double max_dist,
                                              double radius) const {
  // Query the swept corridor's bounding box, inflated by the radius. A
  // wall overlapping it has its midpoint within max_half_length_ of it.
  const Vec2 end = start + dir * max_dist;
  AABB sweep = AABB::FromSegment(start, end);
  sweep.min -= Vec2{radius, radius};
  sweep.max += Vec2{radius, radius};
  const double pad = max_half_length_ + Margin(start, radius + max_dist);
  const int x0 = CellX(sweep.min.x - pad);
  const int x1 = CellX(sweep.max.x + pad);
  const int y0 = CellY(sweep.min.y - pad);
  const int y1 = CellY(sweep.max.y + pad);

  double best_dist = std::numeric_limits<double>::infinity();
  size_t best_idx = std::numeric_limits<size_t>::max();
  for (int cy = y0; cy <= y1; ++cy) {
    // Cells x0..x1 of one row are one contiguous slot range.
    const size_t row = static_cast<size_t>(cy) * static_cast<size_t>(nx_);
    const uint32_t begin = cell_begin_[row + static_cast<size_t>(x0)];
    const uint32_t stop = cell_begin_[row + static_cast<size_t>(x1) + 1];
    for (uint32_t i = begin; i < stop; ++i) {
      const Segment& s = cell_segments_[i];
      if (!AABB::FromSegment(s.a, s.b).Intersects(sweep)) continue;
      const auto hit =
          MovingCircleSegmentHit(start, dir, max_dist, radius, s);
      if (!hit.has_value()) continue;
      const size_t idx = cell_wall_ids_[i];
      if (*hit < best_dist || (*hit == best_dist && idx < best_idx)) {
        best_dist = *hit;
        best_idx = idx;
      }
    }
  }
  if (best_idx == std::numeric_limits<size_t>::max()) return std::nullopt;
  return std::make_pair(best_dist, best_idx);
}

}  // namespace seve
