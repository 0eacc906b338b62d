#ifndef SEVE_STORE_WORLD_STATE_H_
#define SEVE_STORE_WORLD_STATE_H_

#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/status.h"
#include "common/types.h"
#include "store/object.h"
#include "store/rw_set.h"

namespace seve {

/// The world-state database: an in-memory versioned object store.
///
/// Each client holds two of these (the optimistic state ζCO and the stable
/// state ζCS); the server holds the authoritative ζS. All action
/// application, reconciliation and blind writes operate on WorldState.
///
/// Objects live in an open-addressing FlatMap, and the order-independent
/// state digest is maintained *incrementally*: digest = seed ^ XOR of
/// per-object hashes, updated on every mutation, so Digest() is O(1)
/// instead of a full rescan. At most one object (the most recently
/// mutated one, `pending_`) may have its hash folded out lazily — it is
/// folded back in from the object's current contents the next time the
/// digest is needed, which is what makes FindMutable and repeated
/// SetAttr on one object cost one hash instead of one per write.
class WorldState {
 public:
  WorldState() = default;

  // Copyable: protocol code snapshots states (document the cost at call
  // sites; per-object copy is what the paper's clients do too).
  WorldState(const WorldState&) = default;
  WorldState& operator=(const WorldState&) = default;
  WorldState(WorldState&&) = default;
  WorldState& operator=(WorldState&&) = default;

  /// Inserts a new object; fails if the id already exists.
  Status Insert(Object object);

  /// Inserts or replaces an object.
  void Upsert(Object object);

  /// Looks up an object; nullptr if absent.
  const Object* Find(ObjectId id) const;

  /// Mutable lookup; nullptr if absent. Bumps the version. The caller
  /// may mutate through the returned pointer until the next WorldState
  /// call; the digest folds the final contents in lazily.
  Object* FindMutable(ObjectId id);

  /// Reads one attribute; null Value if object or attribute is absent.
  const Value& GetAttr(ObjectId id, AttrId attr) const;

  /// Writes one attribute, creating the object if needed.
  void SetAttr(ObjectId id, AttrId attr, Value value);

  Status Remove(ObjectId id);

  bool Contains(ObjectId id) const { return objects_.Find(id) != nullptr; }
  size_t size() const { return objects_.size(); }

  /// Monotone change counter (bumped on every mutating access).
  uint64_t version() const { return version_; }

  /// Copies the objects named by `set` from `source` into this state —
  /// the reconciliation assignment ζCO(WS(Q)) ← ζCS(WS(Q)) of Algorithm 3.
  /// Objects absent from `source` are removed here too.
  void CopyObjectsFrom(const WorldState& source, const ObjectSet& set);

  /// Extracts copies of the objects named by `set` (missing ids skipped) —
  /// the payload of a blind write W(S, ζS(S)).
  std::vector<Object> Extract(const ObjectSet& set) const;

  /// Applies object copies (the receive side of a blind write / state
  /// push).
  void ApplyObjects(const std::vector<Object>& objects);

  /// Order-independent digest of the full state; equal digests across
  /// replicas mean consistent states. O(1): maintained incrementally on
  /// every mutation (bit-for-bit equal to RescanDigest()).
  uint64_t Digest() const;

  /// Digest restricted to `set` (for per-client consistency checks in the
  /// Incomplete World Model, where clients track only subsets).
  uint64_t DigestOf(const ObjectSet& set) const;

  /// Full-rescan reference digest (O(n)); tests and benches verify the
  /// incremental digest against it.
  uint64_t RescanDigest() const;

  /// Incremental-digest kernel counters (hash folds performed, full
  /// rescans requested) for bench telemetry.
  uint64_t digest_folds() const { return digest_folds_; }
  uint64_t digest_rescans() const { return digest_rescans_; }

  /// All object ids, ascending (deterministic iteration for tests).
  std::vector<ObjectId> ObjectIds() const;

  /// Calls fn(id, content_hash) for every object. The per-object hashes
  /// are maintained incrementally alongside the digest fold (stored when
  /// a pending object is flushed, erased on removal), so a summary costs
  /// an iteration, not a rehash of the world. Iteration is in hash-table
  /// order; callers needing a canonical order must sort — the sync layer
  /// XOR-folds entries, so order never reaches the wire.
  template <typename Fn>
  void ForEachSummary(Fn&& fn) const {
    FlushPending();
    objects_.ForEach([this, &fn](ObjectId id, const Object& obj) {
      const uint64_t* cached = hashes_.Find(id);
      fn(id, cached != nullptr ? *cached : obj.Hash());
    });
  }

  /// Calls fn(id, object) for every object, in hash-table order (callers
  /// needing a canonical order must sort). One pass over the table: no
  /// per-id hash probe.
  template <typename Fn>
  void ForEachObject(Fn&& fn) const {
    objects_.ForEach(fn);
  }

  std::string ToString() const;

 private:
  static constexpr uint64_t kDigestSeed = 0x2545f4914f6cdd1dULL;

  /// Folds the pending object's current hash back into the digest.
  void FlushPending() const;
  /// Excludes `id` from the folded digest (removing `existing`'s hash if
  /// it was folded) and records it as the pending object.
  void Touch(ObjectId id, const Object* existing);
  /// Folds out `existing` ahead of an erase.
  void Forget(ObjectId id, const Object& existing);

  FlatMap<ObjectId, Object> objects_;
  uint64_t version_ = 0;
  // XOR-fold of per-object hashes for every object except pending_.
  mutable uint64_t digest_acc_ = kDigestSeed;
  // Folded per-object hashes, mirrored from the digest fold: an entry is
  // exact for every object except pending_ (refreshed on flush). Feeds
  // ForEachSummary without rehashing attribute tuples.
  mutable FlatMap<ObjectId, uint64_t> hashes_;
  mutable ObjectId pending_ = ObjectId::Invalid();
  mutable uint64_t digest_folds_ = 0;
  mutable uint64_t digest_rescans_ = 0;
};

}  // namespace seve

#endif  // SEVE_STORE_WORLD_STATE_H_
