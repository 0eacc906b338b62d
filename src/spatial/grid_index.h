#ifndef SEVE_SPATIAL_GRID_INDEX_H_
#define SEVE_SPATIAL_GRID_INDEX_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "spatial/aabb.h"
#include "spatial/vec2.h"

namespace seve {

/// Uniform-grid spatial index over 64-bit item keys.
///
/// Used for avatar proximity queries: the client indexes of the SEVE
/// server and the RING baseline, whose items move every tick. Items are
/// stored in every cell their AABB overlaps; queries deduplicate via a
/// per-item visit stamp, so results contain each item once. (The static
/// 100,000-wall world does not use it: WallField bins each wall once, by
/// midpoint, in its own read-only layout — see world/wall.h.)
///
/// Hot-path layout: item records live in a slot-indexed slab (`recs_`)
/// carrying the dedup stamp inline, and each cell stores 32-bit slot
/// indices with a small inline capacity — a circle query touches no hash
/// table and allocates nothing.
class GridIndex {
 public:
  /// `bounds` is the world rectangle; `cell_size` trades memory for query
  /// selectivity (a few times the typical query radius works well).
  GridIndex(const AABB& bounds, double cell_size);

  GridIndex(const GridIndex&) = delete;
  GridIndex& operator=(const GridIndex&) = delete;

  /// Inserts an item covering `box`. Fails if the key is already present.
  Status Insert(uint64_t key, const AABB& box);

  /// Removes an item; fails if absent.
  Status Remove(uint64_t key);

  /// Moves an existing item to a new box (remove + insert, but skips
  /// re-linking when the covered cell range is unchanged).
  Status Move(uint64_t key, const AABB& new_box);

  bool Contains(uint64_t key) const { return slot_of_.count(key) != 0; }
  size_t size() const { return slot_of_.size(); }

  /// Calls `fn` once per item whose AABB overlaps `query`. Zero-allocation
  /// template form — preferred on hot paths (the std::function overloads
  /// below wrap this one).
  template <typename Fn>
  void ForEachInBox(const AABB& query, Fn&& fn) const {
    const CellRange range = RangeFor(query);
    const uint64_t epoch = ++query_epoch_;
    for (int cy = range.y0; cy <= range.y1; ++cy) {
      for (int cx = range.x0; cx <= range.x1; ++cx) {
        const CellVec& cell = cells_[CellIndex(cx, cy)];
        const uint32_t* slots = cell.data();
        const uint32_t n = cell.size();
        for (uint32_t i = 0; i < n; ++i) {
          const ItemRec& rec = recs_[slots[i]];
          if (rec.stamp == epoch) continue;
          rec.stamp = epoch;
          if (rec.box.Intersects(query)) fn(rec.key);
        }
      }
    }
  }

  /// Calls `fn` once per item whose AABB overlaps the circle's AABB and
  /// whose stored box actually intersects the circle's box. (Exact circle
  /// tests are left to the caller, which has the item geometry.)
  template <typename Fn>
  void ForEachInCircle(Vec2 center, double radius, Fn&& fn) const {
    ForEachInBox(AABB::FromCircle(center, radius), std::forward<Fn>(fn));
  }

  /// Type-erased conveniences (one std::function construction per call —
  /// use the ForEach* templates where the query rate matters).
  void QueryBox(const AABB& query,
                const std::function<void(uint64_t)>& fn) const;
  void QueryCircle(Vec2 center, double radius,
                   const std::function<void(uint64_t)>& fn) const;

  /// Appends keys overlapping `query` to `*out` in deterministic visit
  /// order (unsorted, not cleared first) — the reusable-scratch form: no
  /// allocation once `out` has warmed up, no per-call sort.
  void CollectBoxInto(const AABB& query, std::vector<uint64_t>* out) const;
  void CollectCircleInto(Vec2 center, double radius,
                         std::vector<uint64_t>* out) const;

  /// Collects keys overlapping `query` into a vector (sorted by key; the
  /// deterministic-but-unsorted *Into forms above skip the sort).
  std::vector<uint64_t> CollectBox(const AABB& query) const;
  std::vector<uint64_t> CollectCircle(Vec2 center, double radius) const;

  /// Moves whose covered cell range was unchanged (no re-linking) — the
  /// avatar-tick fast path. Exposed so tests and benches can verify the
  /// fast path is actually taken.
  int64_t move_fastpath_hits() const { return move_fastpath_hits_; }
  /// Moves that had to unlink + relink cells.
  int64_t move_relinks() const { return move_relinks_; }

 private:
  struct CellRange {
    int x0, y0, x1, y1;
  };
  struct ItemRec {
    uint64_t key = 0;
    AABB box;
    CellRange range{0, 0, 0, 0};
    // Query-time dedup stamp; mutable because queries are logically const.
    mutable uint64_t stamp = 0;
  };

  /// Per-cell list of item slots: small counts (the common case — avatar
  /// cells hold a handful of items) stay inline in the cells_ array
  /// itself; denser cells spill to a heap array.
  class CellVec {
   public:
    CellVec() = default;
    CellVec(CellVec&& other) noexcept { MoveFrom(std::move(other)); }
    CellVec& operator=(CellVec&& other) noexcept {
      if (this != &other) {
        FreeHeap();
        MoveFrom(std::move(other));
      }
      return *this;
    }
    CellVec(const CellVec&) = delete;
    CellVec& operator=(const CellVec&) = delete;
    ~CellVec() { FreeHeap(); }

    uint32_t size() const { return size_; }
    const uint32_t* data() const {
      return capacity_ == kInline ? inline_ : heap_;
    }

    void push_back(uint32_t v) {
      if (size_ == capacity_) Grow();
      MutableData()[size_++] = v;
    }

    /// Removes the first occurrence of `v` by swapping the tail into its
    /// place; returns false if absent.
    bool SwapRemove(uint32_t v) {
      uint32_t* d = MutableData();
      for (uint32_t i = 0; i < size_; ++i) {
        if (d[i] == v) {
          d[i] = d[size_ - 1];
          --size_;
          return true;
        }
      }
      return false;
    }

   private:
    static constexpr uint32_t kInline = 6;

    uint32_t* MutableData() { return capacity_ == kInline ? inline_ : heap_; }
    void Grow();
    void FreeHeap() {
      // Pairs with CellVec::Grow's small-buffer allocation.
      // seve-lint: allow(mem-raw-delete): small-buffer array release
      if (capacity_ != kInline) delete[] heap_;
    }
    void MoveFrom(CellVec&& other) noexcept {
      size_ = other.size_;
      capacity_ = other.capacity_;
      if (capacity_ == kInline) {
        std::memcpy(inline_, other.inline_, sizeof(inline_));
      } else {
        heap_ = other.heap_;
        other.capacity_ = kInline;
      }
      other.size_ = 0;
    }

    uint32_t size_ = 0;
    uint32_t capacity_ = kInline;
    union {
      uint32_t inline_[kInline];
      uint32_t* heap_;
    };
  };

  CellRange RangeFor(const AABB& box) const;
  size_t CellIndex(int cx, int cy) const {
    return static_cast<size_t>(cy) * static_cast<size_t>(nx_) +
           static_cast<size_t>(cx);
  }
  static bool SameRange(const CellRange& a, const CellRange& b) {
    return a.x0 == b.x0 && a.y0 == b.y0 && a.x1 == b.x1 && a.y1 == b.y1;
  }
  void LinkSlot(uint32_t slot, const CellRange& range);
  void UnlinkSlot(uint32_t slot, const CellRange& range);

  AABB bounds_;
  double cell_size_;
  int nx_;
  int ny_;
  std::vector<CellVec> cells_;
  std::vector<ItemRec> recs_;        // slot-indexed slab
  std::vector<uint32_t> free_slots_; // recycled recs_ slots
  std::unordered_map<uint64_t, uint32_t> slot_of_;
  mutable uint64_t query_epoch_ = 0;
  int64_t move_fastpath_hits_ = 0;
  int64_t move_relinks_ = 0;
};

}  // namespace seve

#endif  // SEVE_SPATIAL_GRID_INDEX_H_
