#ifndef SEVE_NET_EVENT_LOOP_H_
#define SEVE_NET_EVENT_LOOP_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/types.h"

namespace seve {

/// Deterministic discrete-event scheduler driving the whole simulation.
///
/// Events fire in (time, insertion-sequence) order, so simultaneous events
/// run in the order they were scheduled — ties never depend on container
/// iteration order, which keeps runs bit-for-bit reproducible.
///
/// Hot-path layout: callbacks are constructed in place inside a chunked
/// slab whose chunks never move (slots recycle through a free list, so a
/// warm loop schedules events without allocating), and the queue holds
/// 16-byte POD entries only, so queue operations never touch a callback.
///
/// The queue is a monotone radix heap on the fire time. At() clamps to
/// now(), so no event is ever scheduled before the last one popped; that
/// is the one property a radix heap needs. An entry sits in the bucket
/// named by the highest bit in which its time differs from `base_`, the
/// time of the last popped event. Bucket 0 holds the entries due at
/// `base_` itself. When it runs dry the lowest non-empty bucket is split
/// on its minimum time, which becomes the new base; each entry moves to a
/// strictly lower bucket, so it is moved at most 63 times in its life,
/// and sequentially.
///
/// Ties need no sequence number: every bucket is always in scheduling
/// order. A push appends the newest event; a split fills only buckets
/// below the one it splits, which are empty, with subsequences of that
/// bucket in its order; equal times always share a bucket. So bucket 0
/// pops in (time, scheduling order).
class EventLoop {
 public:
  /// 64 inline bytes covers the network-delivery closure (Node* + Message,
  /// 56 bytes) and typical protocol work items; anything bigger takes one
  /// heap allocation inside InlineFunction instead of one per event.
  using Callback = InlineFunction<64>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time (microseconds).
  VirtualTime now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (clamped to now()).
  template <typename F>
  void At(VirtualTime t, F&& fn) {
    const uint32_t slot = AcquireSlot();
    SlotRef(slot).Emplace(std::forward<F>(fn));
    PushEntry(std::max(t, now_), slot);
  }

  /// Schedules `fn` after `delay` microseconds.
  template <typename F>
  void After(Micros delay, F&& fn) {
    At(now_ + delay, std::forward<F>(fn));
  }

  /// Runs the earliest pending event; returns false when queue is empty.
  bool RunOne();

  /// Runs all events with fire time <= `deadline`; leaves now() at
  /// min(deadline, time of last event run) — callers normally pass the
  /// scenario end time.
  void RunUntil(VirtualTime deadline);

  /// Runs until no events remain or `max_events` is exhausted. Returns the
  /// number of events run. The cap guards against runaway feedback loops
  /// in overloaded scenarios.
  size_t RunUntilIdle(size_t max_events = SIZE_MAX);

  size_t pending() const { return pending_; }
  size_t events_run() const { return events_run_; }

 private:
  /// Callbacks per slab chunk. Chunk addresses are stable, so a running
  /// callback may schedule new events (growing the slab) while the loop
  /// still holds a reference to its slot.
  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;

  /// Times are non-negative int64, so two of them differ in bits 0..62
  /// only: bucket b >= 1 holds highest differing bit b - 1.
  static constexpr int kBuckets = 64;
  /// An emptied bucket keeps up to this many entries (4 KiB) of capacity;
  /// a larger one gives its storage back, so a burst that passed through
  /// (the up-front move schedule, a big tie) does not stay resident.
  static constexpr size_t kKeepCapacity = 256;

  struct Entry {
    VirtualTime time;
    uint32_t slot;
  };

  Callback& SlotRef(uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  uint32_t AcquireSlot() {
    if (free_slots_.empty()) GrowSlab();
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  void GrowSlab();
  void PushEntry(VirtualTime t, uint32_t slot);
  /// Appends `entry` to the bucket its time selects relative to `base_`.
  void Place(const Entry& entry);
  /// Removes the earliest entry into `*out` if it fires at or before
  /// `deadline`. Never moves `base_` past `deadline`, so an At() between
  /// now() and a later event stays above the base.
  bool PopDue(VirtualTime deadline, Entry* out);
  /// Splits bucket `b` on its minimum time, which becomes `base_`.
  void Redistribute(int b);
  /// Clears `bucket`, freeing its storage past kKeepCapacity entries.
  static void Empty(std::vector<Entry>* bucket);
  void Run(const Entry& entry);

  /// Each bucket is in scheduling order, not time order; buckets_[0] is
  /// consumed from `ready_head_`.
  std::array<std::vector<Entry>, kBuckets> buckets_;
  /// Minimum time held by each non-empty bucket b >= 1.
  std::array<VirtualTime, kBuckets> bucket_min_{};
  uint64_t nonempty_ = 0;  // bit b set iff buckets_[b] (b >= 1) has entries
  size_t ready_head_ = 0;
  VirtualTime base_ = 0;
  size_t pending_ = 0;

  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::vector<uint32_t> free_slots_;
  VirtualTime now_ = 0;
  size_t events_run_ = 0;
};

}  // namespace seve

#endif  // SEVE_NET_EVENT_LOOP_H_
