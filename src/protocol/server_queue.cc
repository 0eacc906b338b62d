#include "protocol/server_queue.h"

#include <algorithm>
#include <memory>

namespace seve {

SeqNum ServerQueue::Append(ActionPtr action, VirtualTime now) {
  const SeqNum pos = end_pos();
  if (entries_.size() == ring_.get_deleter().slots) GrowRing();
  Entry entry;
  entry.pos = pos;
  entry.submitted_at = now;

  WalkRec& rec = *std::construct_at(RingSlot(pos));
  rec.anchor = action->Interest().position;
  rec.action = action.get();
  const ObjectSet& write_set = action->WriteSet();
  rec.num_links = static_cast<uint32_t>(write_set.size());
  WriteLink* links = &rec.link;
  if (rec.num_links > WalkRec::kInlineLinks) {
    entry.spilled_links.resize(write_set.size());
    links = entry.spilled_links.data();
    rec.spilled_links = links;  // the vector's buffer moves with the entry
  }
  for (ObjectId id : write_set) {
    WriteLink& link = *links++;
    link.id = id;
    // Writer chains are InlineVec<SeqNum, 4>: short chains (the common
    // case) never touch the heap, and the lazy prune in
    // GreatestWriterBelow keeps long ones bounded.
    WriterChain& chain = writers_[id];
    if (!chain.empty() && chain.back() >= base_) {
      link.prev_pos = chain.back();
      link.prev_link = LinkIndex(Record(link.prev_pos), id);
    }
    chain.push_back(pos);  // seve-lint: allow(hot-vector-realloc): InlineVec inline capacity
  }
  const ObjectSet& read_set = action->ReadSet();
  if (read_set.size() <= WalkRec::kInlineReads) {
    rec.num_reads = static_cast<uint16_t>(read_set.size());
    std::copy(read_set.begin(), read_set.end(), rec.reads);
  } else {
    rec.num_reads = WalkRec::kSpilledReads;
  }

  entry.action = std::move(action);
  entries_.push_back(std::move(entry));  // seve-lint: allow(hot-vector-realloc): std::deque has no reserve
  return pos;
}

void ServerQueue::GrowRing() {
  const size_t slots = std::max<size_t>(64, 2 * ring_.get_deleter().slots);
  Ring grown(std::allocator<WalkRec>().allocate(slots), RingRelease{slots});
  const size_t mask = slots - 1;
  for (SeqNum pos = base_; pos < end_pos(); ++pos) {
    std::construct_at(grown.get() + (static_cast<size_t>(pos) & mask),
                      Record(pos));
  }
  ring_ = std::move(grown);
  ring_mask_ = mask;
}

ServerQueue::Entry* ServerQueue::Find(SeqNum pos) {
  if (pos < base_ || pos >= end_pos()) return nullptr;
  return &entries_[IndexOf(pos)];
}

const ServerQueue::Entry* ServerQueue::Find(SeqNum pos) const {
  if (pos < base_ || pos >= end_pos()) return nullptr;
  return &entries_[IndexOf(pos)];
}

SeqNum ServerQueue::GreatestWriterBelow(ObjectId id, SeqNum below) const {
  WriterChain* positions = writers_.Find(id);
  if (positions == nullptr) return kInvalidSeq;
  SeqNum* first_live =
      std::lower_bound(positions->begin(), positions->end(), base_);
  if (first_live == positions->end()) {
    // Every writer of this object has committed: drop the chain outright
    // (backward-shift erase, no tombstone left in the table).
    writers_.Erase(id);
    ++writer_prunes_;
    return kInvalidSeq;
  }
  // Lazy prune of the committed prefix (amortized O(1) per append): only
  // pay the memmove once the dead prefix outweighs the live suffix.
  const size_t dead = static_cast<size_t>(first_live - positions->begin());
  if (dead > 0 && dead * 2 > positions->size()) {
    positions->EraseFront(dead);
    ++writer_prunes_;
    first_live = positions->begin();
  }
  SeqNum* candidate = std::lower_bound(first_live, positions->end(), below);
  if (candidate == first_live) return kInvalidSeq;
  --candidate;
  return *candidate >= base_ ? *candidate : kInvalidSeq;
}

void ServerQueue::MarkInvalid(SeqNum pos) {
  Entry* entry = Find(pos);
  if (entry == nullptr) return;
  entry->valid = false;
  RingSlot(pos)->valid = false;
}

bool ServerQueue::HasUncommittedWriter(ObjectId id) const {
  const WriterChain* positions = writers_.Find(id);
  if (positions == nullptr) return false;
  // The chain is ascending; suffix entries at/above base_ are still in
  // the queue. Invalid entries don't count (their install is skipped),
  // but completed-waiting-for-frontier ones do.
  for (auto it = positions->end(); it != positions->begin();) {
    --it;
    if (*it < base_) break;
    const Entry* entry = Find(*it);
    if (entry != nullptr && entry->valid) return true;
  }
  return false;
}

SeqNum ServerQueue::NoteMovementAppend(SeqNum pos, ClientId origin) {
  SeqNum* last = last_move_pos_.Find(origin);
  const SeqNum prev = last == nullptr ? kInvalidSeq : *last;
  last_move_pos_[origin] = pos;
  if (prev == kInvalidSeq) return kInvalidSeq;
  const Entry* entry = Find(prev);
  if (entry == nullptr || !entry->valid || entry->completed) {
    return kInvalidSeq;
  }
  // Never recall: once any replica holds the predecessor, its optimistic
  // effects are out in the world and it must serialize normally.
  if (!entry->sent.empty()) return kInvalidSeq;
  if (!entry->action->IsMovement()) return kInvalidSeq;
  return prev;
}

size_t ServerQueue::WriterChainLengthForTest(ObjectId id) const {
  const WriterChain* chain = writers_.Find(id);
  return chain != nullptr ? chain->size() : 0;
}

}  // namespace seve
