#include "net/event_loop.h"

#include <bit>
#include <limits>

namespace seve {

void EventLoop::GrowSlab() {
  const uint32_t base = static_cast<uint32_t>(chunks_.size()) << kChunkShift;
  // seve-analyze: allow(hot-alloc-reachable): amortized slab growth
  chunks_.push_back(std::make_unique<Callback[]>(kChunkSize));
  free_slots_.reserve(free_slots_.size() + kChunkSize);
  // Hand slots out in ascending order (the free list is LIFO).
  for (uint32_t i = kChunkSize; i > 0; --i) {
    free_slots_.push_back(base + i - 1);
  }
}

void EventLoop::Place(const Entry& entry) {
  const int b = static_cast<int>(
      std::bit_width(static_cast<uint64_t>(entry.time ^ base_)));
  if (b != 0) {
    const uint64_t bit = uint64_t{1} << b;
    VirtualTime& min = bucket_min_[static_cast<size_t>(b)];
    if ((nonempty_ & bit) == 0) {
      nonempty_ |= bit;
      min = entry.time;
    } else {
      min = std::min(min, entry.time);
    }
  }
  std::vector<Entry>& bucket = buckets_[static_cast<size_t>(b)];
  // seve-analyze: allow(hot-alloc-reachable): geometric growth, amortized
  bucket.push_back(entry);
}

void EventLoop::PushEntry(VirtualTime t, uint32_t slot) {
  Place(Entry{t, slot});
  ++pending_;
}

void EventLoop::Redistribute(int b) {
  std::vector<Entry>& from = buckets_[static_cast<size_t>(b)];
  nonempty_ &= ~(uint64_t{1} << b);
  base_ = bucket_min_[static_cast<size_t>(b)];
  // Every entry agrees with the new base above bit b - 1, so it lands in a
  // strictly lower bucket and `from` is never appended to here. Those
  // buckets are all empty (b was the lowest non-empty one), so each
  // receives a subsequence of `from` in its scheduling order.
  for (const Entry& entry : from) Place(entry);
  Empty(&from);
}

void EventLoop::Empty(std::vector<Entry>* bucket) {
  if (bucket->capacity() > kKeepCapacity) {
    std::vector<Entry>().swap(*bucket);
  } else {
    bucket->clear();
  }
}

bool EventLoop::PopDue(VirtualTime deadline, Entry* out) {
  std::vector<Entry>& ready = buckets_[0];
  if (ready_head_ == ready.size()) {
    if (nonempty_ == 0) return false;
    const int b = std::countr_zero(nonempty_);
    if (bucket_min_[static_cast<size_t>(b)] > deadline) return false;
    std::vector<Entry>& lowest = buckets_[static_cast<size_t>(b)];
    if (lowest.size() == 1) {
      // A lone entry is the minimum: pop it without splitting (the common
      // case of a short queue, where the split is the whole cost).
      *out = lowest.front();
      lowest.clear();
      nonempty_ &= ~(uint64_t{1} << b);
      base_ = out->time;
      --pending_;
      return true;
    }
    Redistribute(b);
  } else if (base_ > deadline) {
    return false;
  }
  *out = ready[ready_head_++];
  if (ready_head_ == ready.size()) {
    Empty(&ready);
    ready_head_ = 0;
  }
  --pending_;
  return true;
}

void EventLoop::Run(const Entry& entry) {
  now_ = entry.time;
  ++events_run_;
  // Run the callback in place: chunk addresses are stable and the slot is
  // not yet on the free list, so the callback may freely schedule new
  // events. Only release the slot after the call returns.
  Callback& cb = SlotRef(entry.slot);
  cb();
  cb.reset();
  free_slots_.push_back(entry.slot);
}

bool EventLoop::RunOne() {
  Entry entry{};
  if (!PopDue(std::numeric_limits<VirtualTime>::max(), &entry)) return false;
  Run(entry);
  return true;
}

void EventLoop::RunUntil(VirtualTime deadline) {
  Entry entry{};
  while (PopDue(deadline, &entry)) Run(entry);
  now_ = std::max(now_, deadline);
}

size_t EventLoop::RunUntilIdle(size_t max_events) {
  size_t run = 0;
  while (run < max_events && RunOne()) ++run;
  return run;
}

}  // namespace seve
