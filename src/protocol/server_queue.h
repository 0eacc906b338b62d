#ifndef SEVE_PROTOCOL_SERVER_QUEUE_H_
#define SEVE_PROTOCOL_SERVER_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "action/action.h"
#include "common/flat_map.h"
#include "common/inline_vec.h"
#include "spatial/vec2.h"
#include "store/object.h"
#include "store/rw_set.h"

namespace seve {

/// The server's global action queue (Algorithms 2 and 5): a committed
/// frontier plus the suffix of uncommitted actions, with the per-action
/// bookkeeping the protocols need — sent(a) per client, Algorithm 7's
/// isValid flag, and the stable results delivered by completion messages.
///
/// Hot/cold split. Each uncommitted position has a cold `Entry` (the
/// action, sent(a), the stable results) in a deque, and a compact
/// `WalkRec` in a power-of-two ring indexed by `pos & mask`. The conflict
/// walk of Algorithms 6 and 7 reads only the records: the anchor
/// (`Interest().position`), the validity flag, the visit stamp, each
/// written object with its *prev link* (the position of that object's
/// previous writer and the object's index in that writer's record), and
/// read sets of up to `kInlineReads` ids inline. Larger read and write
/// sets fall back to the action and to entry-owned link storage. A
/// visit then touches one 128-byte record instead of chasing deque
/// entry → action → vtable → sets.
///
/// Conflict chains are followed through the prev links; the per-object
/// writer index (an open-addressing FlatMap of ascending writer
/// positions, pruned lazily past the committed frontier) is consulted
/// only to seed an object the first time it enters the closure set S.
/// A walk therefore costs O(chain) heap operations instead of O(queue)
/// scans; the caller charges simulated CPU per visit, which is how the
/// implementation reproduces the paper's ~0.04 ms closure cost
/// independent of client count.
///
/// Visited records are deduplicated with epoch stamps instead of a
/// heap-allocated hash set, membership of S is answered from
/// epoch-stamped side storage, closure growth is folded into S in
/// batched sorted merges, the candidate heap lives in inline storage,
/// and the visitor is a template parameter so per-visit dispatch
/// inlines instead of going through std::function.
class ServerQueue {
 public:
  /// The paper's sent(a): the clients that hold a copy of an action. A
  /// sorted inline vector — most actions reach a handful of clients, so
  /// the set lives inside the entry. Only membership is ever asked.
  class SentSet {
   public:
    size_t count(ClientId client) const {
      return std::binary_search(ids_.begin(), ids_.end(), client) ? 1 : 0;
    }
    void insert(ClientId client) {
      const ClientId* it = std::lower_bound(ids_.begin(), ids_.end(), client);
      if (it != ids_.end() && *it == client) return;
      ids_.InsertAt(static_cast<size_t>(it - ids_.begin()), client);
    }
    bool empty() const { return ids_.empty(); }

   private:
    InlineVec<ClientId, 4> ids_;
  };

  /// One written object of a record and its link down the object's
  /// writer chain.
  struct WriteLink {
    ObjectId id;
    /// Position of the object's previous writer; a value below
    /// begin_pos() (or kInvalidSeq) means none is left uncommitted.
    SeqNum prev_pos = kInvalidSeq;
    /// Index of `id` in the links of the record at `prev_pos`.
    uint32_t prev_link = 0;
  };

  /// The walk-time view of one uncommitted position (see the class
  /// comment). Owned by the ring; `action` is owned by the position's
  /// Entry and outlives the record's use.
  struct alignas(64) WalkRec {
    static constexpr uint32_t kInlineLinks = 1;
    static constexpr uint16_t kInlineReads = 6;
    static constexpr uint16_t kSpilledReads = 0xFFFF;

    Vec2 anchor;                     // Interest().position
    const Action* action = nullptr;  // spilled reads, kResolve, visitors
    mutable uint64_t visit_stamp = 0;
    uint32_t num_links = 0;
    uint16_t num_reads = 0;  // inline read count, or kSpilledReads
    bool valid = true;       // mirrors Entry::valid
    WriteLink link;          // the only link when num_links == 1
    const WriteLink* spilled_links = nullptr;  // when num_links > 1
    ObjectId reads[kInlineReads];

    const WriteLink* links() const {
      return num_links <= kInlineLinks ? &link : spilled_links;
    }
    /// Calls fn(ObjectId) for each id of RS(a), ascending.
    template <typename Fn>
    void ForEachRead(Fn&& fn) const {
      if (num_reads == kSpilledReads) {
        for (ObjectId id : action->ReadSet()) fn(id);
      } else {
        for (uint16_t i = 0; i < num_reads; ++i) fn(reads[i]);
      }
    }
  };

  static_assert(sizeof(WalkRec) == 128, "a walk record spans two cache lines");

  struct Entry {
    SeqNum pos = kInvalidSeq;
    ActionPtr action;
    VirtualTime submitted_at = 0;
    SentSet sent;       // the paper's sent(a)
    bool valid = true;  // Algorithm 7's isValid
    bool completed = false;
    ResultDigest stable_digest = 0;
    std::vector<Object> stable_written;
    // Link storage for write sets larger than WalkRec::kInlineLinks.
    std::vector<WriteLink> spilled_links;
  };

  /// What the conflict-walk visitor decides for an intersecting entry.
  enum class WalkVerdict {
    kInclude,  // S ← S ∪ RS(a_j); prepend a_j (Algorithm 6 "not sent")
    kResolve,  // S ← S \ WS(a_j)              (Algorithm 6 "already sent")
    kSkip,     // leave S unchanged, keep walking
    kStop,     // abort the walk               (Algorithm 7 threshold hit)
  };

  ServerQueue() = default;

  /// Appends a freshly submitted action; returns its pos(a).
  SeqNum Append(ActionPtr action, VirtualTime now);

  /// Entry at `pos`; nullptr if committed, dropped-and-popped, or unknown.
  Entry* Find(SeqNum pos);
  const Entry* Find(SeqNum pos) const;

  /// Walk record of an uncommitted position: begin_pos() <= pos <
  /// end_pos().
  const WalkRec& Record(SeqNum pos) const {
    return ring_.get()[static_cast<size_t>(pos) & ring_mask_];
  }

  /// First uncommitted position (the paper's j+1 in Algorithm 5 step 3).
  SeqNum begin_pos() const { return base_; }
  /// One past the newest position.
  SeqNum end_pos() const { return base_ + static_cast<SeqNum>(entries_.size()); }
  size_t uncommitted_size() const { return entries_.size(); }

  /// Walks valid uncommitted entries in descending pos order starting
  /// strictly below `start_pos`, visiting exactly those whose write set
  /// intersects the evolving read set S — the shared skeleton of
  /// Algorithm 6 (transitive closure) and Algorithm 7 (chain breaking).
  /// S starts as *read_set and *read_set holds the final S afterwards;
  /// a null `read_set` starts S as RS of the (uncommitted) entry at
  /// `start_pos` and keeps S in the membership stamps only. Returns the
  /// number of entries visited (for CPU-cost accounting).
  ///
  /// `visitor` is invoked as WalkVerdict(SeqNum pos, const WalkRec&); the
  /// template keeps the per-visit call inlineable (no std::function).
  template <typename Visitor>
  int WalkConflicts(SeqNum start_pos, ObjectSet* read_set,
                    Visitor&& visitor) const {
    // Max-heap of (position, object) candidates, each carrying the
    // object's index in that position's links. Each object's writer
    // chain is enumerated in descending pos order, so globally entries
    // are visited in descending order as Algorithms 6 and 7 require.
    struct Candidate {
      SeqNum pos;
      ObjectId obj;
      uint32_t link;
      bool operator<(const Candidate& o) const {
        return pos < o.pos || (pos == o.pos && obj < o.obj);
      }
    };
    InlineVec<Candidate, 32> heap;
    auto push = [&heap](SeqNum pos, ObjectId obj, uint32_t link) {
      heap.push_back(Candidate{pos, obj, link});  // seve-lint: allow(hot-vector-realloc): InlineVec inline capacity
      std::push_heap(heap.begin(), heap.end());
    };

    const uint64_t epoch = ++walk_epoch_;
    // Epoch-stamped membership mirror of S: stamp == epoch means "in S
    // right now". Stamps are reused across walks (stale stamps never
    // match), so membership tests are O(1) — one load for the dense id
    // range — with no per-walk clearing and no steady-state allocation.
    auto member = [this, epoch](ObjectId id) {
      return WalkMember(id, epoch);
    };
    // S gains `id`: stamp it and seed its writer chain below `below`.
    auto join = [&](ObjectId id, SeqNum below) {
      WalkStamp(id, epoch);
      const SeqNum writer = GreatestWriterBelow(id, below);
      if (writer != kInvalidSeq) {
        push(writer, id, LinkIndex(Record(writer), id));
      }
    };
    if (read_set != nullptr) {
      for (ObjectId id : *read_set) join(id, start_pos);
    } else {
      Record(start_pos).ForEachRead(
          [&](ObjectId id) { join(id, start_pos); });
    }
    // Closure additions are batched and folded into *read_set with one
    // sorted merge instead of one memmove per id. kResolve subtracts
    // from the full set, so it flushes first.
    InlineVec<ObjectId, 32> added;
    auto flush_added = [read_set, &added]() {
      if (added.empty()) return;
      std::sort(added.begin(), added.end());
      read_set->UnionWithSorted(added.begin(), added.size());
      added.clear();
    };

    int visits = 0;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end());
      const Candidate c = heap.back();
      heap.pop_back();
      const WalkRec& rec = Record(c.pos);
      const bool obj_in_s = member(c.obj);
      // Continue this object's chain regardless of the verdict below.
      if (obj_in_s) {
        const WriteLink& link = rec.links()[c.link];
        if (link.prev_pos >= base_) push(link.prev_pos, c.obj, link.prev_link);
      }
      if (!rec.valid) continue;
      if (rec.visit_stamp == epoch) continue;  // already visited
      if (!obj_in_s) continue;  // object resolved meanwhile
      // WS(a_j) ∩ S ∋ c.obj, so the intersection holds without a test.
      // It is still counted as one ObjectSet intersection so the bench
      // and perfbench kernel telemetry stay comparable across paths.
      ++GetObjectSetCounters().intersect_calls;
      rec.visit_stamp = epoch;
      ++visits;

      const WalkVerdict verdict = visitor(c.pos, rec);
      if (verdict == WalkVerdict::kStop) break;
      if (verdict == WalkVerdict::kResolve) {
        if (read_set != nullptr) {
          flush_added();
          read_set->SubtractWith(rec.action->WriteSet());
        }
        const WriteLink* links = rec.links();
        for (uint32_t i = 0; i < rec.num_links; ++i) {
          WalkUnstamp(links[i].id);
        }
      } else if (verdict == WalkVerdict::kInclude) {
        // S ← S ∪ RS(a_j); new objects contribute their own writer
        // chains.
        rec.ForEachRead([&](ObjectId id) {
          if (member(id)) return;
          if (read_set != nullptr) {
            added.push_back(id);  // seve-lint: allow(hot-vector-realloc): InlineVec inline capacity
          }
          join(id, c.pos);
        });
      }
    }
    if (read_set != nullptr) flush_added();
    walk_visits_total_ += static_cast<uint64_t>(visits);
    return visits;
  }

  /// Algorithm 7: marks an entry dropped. Dropped entries are skipped by
  /// WalkConflicts and discarded when they reach the frontier.
  void MarkInvalid(SeqNum pos);

  /// True while any uncommitted entry writes `id`. Completed-but-not-yet-
  /// installed entries count: their install would re-materialize the
  /// object. The ownership-migration drain wait (shard/shard_server.cc)
  /// polls this before moving an object's authoritative record.
  bool HasUncommittedWriter(ObjectId id) const;

  /// Updatable-queue bookkeeping (SeveOptions::move_supersession): call
  /// right after Append(pos) of a movement action. Updates the
  /// per-origin newest-movement index and returns the origin's previous
  /// queued movement position iff that predecessor is still valid,
  /// uncompleted, itself a movement, and was never sent to any client —
  /// i.e. it can be dropped without recalling anything from a replica.
  /// Returns kInvalidSeq otherwise. Callers that never invoke this pay
  /// nothing; the data path is untouched when the knob is off.
  SeqNum NoteMovementAppend(SeqNum pos, ClientId origin);

  /// Records the stable result for `pos` (Algorithm 5 step 5). Then
  /// advances the committed frontier: pops entries while the head is
  /// completed or invalid, calling `install(const Entry&)` for each
  /// valid popped entry (in order) so the caller can fold the values
  /// into ζS.
  template <typename Install>
  void Complete(SeqNum pos, ResultDigest digest, std::vector<Object> written,
                Install&& install) {
    Entry* entry = Find(pos);
    if (entry != nullptr && !entry->completed) {
      entry->completed = true;
      entry->stable_digest = digest;
      entry->stable_written = std::move(written);
    }
    // Advance the frontier (Algorithm 5 step 5: install once ζS(i-1) is
    // available, i.e. once every earlier action is installed or dropped).
    while (!entries_.empty()) {
      const Entry& head = entries_.front();
      if (head.valid && !head.completed) break;
      if (head.valid) install(head);
      entries_.pop_front();
      ++base_;
    }
  }

  /// Kernel counters for bench telemetry / regression tests.
  uint64_t walk_visits_total() const { return walk_visits_total_; }
  uint64_t writer_prunes() const { return writer_prunes_; }
  /// Stored (possibly not-yet-pruned) writer-chain length for `id`; test
  /// hook for the lazy-prune regression coverage.
  size_t WriterChainLengthForTest(ObjectId id) const;

 private:
  using WriterChain = InlineVec<SeqNum, 4>;

  size_t IndexOf(SeqNum pos) const {
    return static_cast<size_t>(pos - base_);
  }
  WalkRec* RingSlot(SeqNum pos) {
    return ring_.get() + (static_cast<size_t>(pos) & ring_mask_);
  }
  /// Doubles the ring, re-placing every live record at pos & new mask.
  void GrowRing();

  // The ring's storage is allocated uninitialized and a record is
  // constructed when its position is appended, so a page of the ring
  // becomes resident only once the queue is that deep, not when the
  // power-of-two capacity is reserved.
  struct RingRelease {
    size_t slots;
    void operator()(WalkRec* ring) const {
      std::allocator<WalkRec>().deallocate(ring, slots);
    }
  };
  using Ring = std::unique_ptr<WalkRec, RingRelease>;

  /// Index of `id` in `rec`'s links (which are sorted by id, as the
  /// write set is). `id` must be one of them.
  static uint32_t LinkIndex(const WalkRec& rec, ObjectId id) {
    const WriteLink* links = rec.links();
    if (rec.num_links <= WalkRec::kInlineLinks) return 0;
    const WriteLink* it = std::lower_bound(
        links, links + rec.num_links, id,
        [](const WriteLink& l, ObjectId v) { return l.id < v; });
    return static_cast<uint32_t>(it - links);
  }

  // Walk-membership stamps. Object ids in practice are small and dense
  // (avatars, walls), so the common path is a direct-indexed stamp
  // array — one load per membership test; ids past the dense limit go
  // to an overflow map so pathological ids can't balloon the array.
  static constexpr uint64_t kDenseStampLimit = uint64_t{1} << 20;
  bool WalkMember(ObjectId id, uint64_t epoch) const {
    const uint64_t v = id.value();
    if (v < walk_stamps_.size()) return walk_stamps_[v] == epoch;
    if (v < kDenseStampLimit) return false;  // never stamped
    const uint64_t* stamp = walk_overflow_stamps_.Find(id);
    return stamp != nullptr && *stamp == epoch;
  }
  void WalkStamp(ObjectId id, uint64_t epoch) const {
    const uint64_t v = id.value();
    if (v < kDenseStampLimit) {
      if (v >= walk_stamps_.size()) {
        size_t n = walk_stamps_.empty() ? 64 : walk_stamps_.size();
        while (n <= v) n *= 2;
        walk_stamps_.resize(n, 0);
      }
      walk_stamps_[v] = epoch;
    } else {
      walk_overflow_stamps_[id] = epoch;
    }
  }
  void WalkUnstamp(ObjectId id) const {
    const uint64_t v = id.value();
    if (v < walk_stamps_.size()) {
      walk_stamps_[v] = 0;
    } else if (v >= kDenseStampLimit) {
      walk_overflow_stamps_.Erase(id);
    }
  }
  /// Greatest writer position of `id` strictly below `below`; kInvalidSeq
  /// if none remains uncommitted.
  SeqNum GreatestWriterBelow(ObjectId id, SeqNum below) const;

  SeqNum base_ = 0;  // pos of entries_.front()
  std::deque<Entry> entries_;
  // Walk records of the uncommitted positions, at pos & ring_mask_; the
  // ring's size is a power of two no smaller than entries_.size().
  Ring ring_{nullptr, RingRelease{0}};
  size_t ring_mask_ = 0;
  // Newest movement position per origin; only populated when the server
  // runs with move_supersession (see NoteMovementAppend).
  FlatMap<ClientId, SeqNum> last_move_pos_;
  // Object -> ascending positions of uncommitted writers. Pruned lazily:
  // the committed prefix of a chain is erased when it outweighs the live
  // suffix, and a fully committed chain is dropped from the map (the
  // FlatMap's backward-shift erase leaves no tombstone behind).
  mutable FlatMap<ObjectId, WriterChain> writers_;
  // Walk-time membership stamps for the evolving closure set S; an id is
  // a member iff its stamp equals the current walk epoch. Never cleared —
  // stale stamps are simply from older epochs.
  mutable std::vector<uint64_t> walk_stamps_;
  mutable FlatMap<ObjectId, uint64_t> walk_overflow_stamps_;
  mutable uint64_t walk_epoch_ = 0;
  mutable uint64_t walk_visits_total_ = 0;
  mutable uint64_t writer_prunes_ = 0;
};

}  // namespace seve

#endif  // SEVE_PROTOCOL_SERVER_QUEUE_H_
