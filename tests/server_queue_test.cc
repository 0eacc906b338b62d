#include "protocol/server_queue.h"

#include <gtest/gtest.h>

#include <set>

#include "action/blind_write.h"
#include "common/rng.h"

namespace seve {
namespace {

/// Minimal action with explicit read/write sets for queue-walk tests.
class SetAction : public Action {
 public:
  SetAction(ActionId id, ClientId origin, ObjectSet reads, ObjectSet writes)
      : Action(id, origin, 0),
        reads_(std::move(reads)),
        writes_(std::move(writes)) {
    reads_.UnionWith(writes_);
  }

  const ObjectSet& ReadSet() const override { return reads_; }
  const ObjectSet& WriteSet() const override { return writes_; }
  Result<ResultDigest> Apply(WorldState*) const override { return 1ull; }
  InterestProfile Interest() const override { return {}; }

 private:
  ObjectSet reads_;
  ObjectSet writes_;
};

ActionPtr Make(uint64_t id, std::initializer_list<uint64_t> reads,
               std::initializer_list<uint64_t> writes) {
  std::vector<ObjectId> r, w;
  for (uint64_t x : reads) r.push_back(ObjectId(x));
  for (uint64_t x : writes) w.push_back(ObjectId(x));
  return std::make_shared<SetAction>(ActionId(id), ClientId(id),
                                     ObjectSet(std::move(r)),
                                     ObjectSet(std::move(w)));
}

TEST(ServerQueueTest, AppendAssignsSequentialPositions) {
  ServerQueue q;
  EXPECT_EQ(q.Append(Make(1, {1}, {1}), 0), 0);
  EXPECT_EQ(q.Append(Make(2, {2}, {2}), 0), 1);
  EXPECT_EQ(q.begin_pos(), 0);
  EXPECT_EQ(q.end_pos(), 2);
  EXPECT_EQ(q.uncommitted_size(), 2u);
}

TEST(ServerQueueTest, FindRespectsBounds) {
  ServerQueue q;
  q.Append(Make(1, {1}, {1}), 0);
  EXPECT_NE(q.Find(0), nullptr);
  EXPECT_EQ(q.Find(1), nullptr);
  EXPECT_EQ(q.Find(-1), nullptr);
}

TEST(ServerQueueTest, CompleteAdvancesFrontierInOrder) {
  ServerQueue q;
  q.Append(Make(1, {1}, {1}), 0);
  q.Append(Make(2, {2}, {2}), 0);
  q.Append(Make(3, {3}, {3}), 0);

  std::vector<SeqNum> installed;
  auto install = [&](const ServerQueue::Entry& e) {
    installed.push_back(e.pos);
  };

  // Completing the middle action does not advance (head incomplete).
  q.Complete(1, 11, {}, install);
  EXPECT_TRUE(installed.empty());
  EXPECT_EQ(q.begin_pos(), 0);

  // Completing the head installs both 0 and 1.
  q.Complete(0, 10, {}, install);
  EXPECT_EQ(installed, (std::vector<SeqNum>{0, 1}));
  EXPECT_EQ(q.begin_pos(), 2);
  EXPECT_EQ(q.Find(0), nullptr);  // popped

  q.Complete(2, 12, {}, install);
  EXPECT_EQ(q.uncommitted_size(), 0u);
  EXPECT_EQ(installed, (std::vector<SeqNum>{0, 1, 2}));
}

TEST(ServerQueueTest, InvalidEntriesPopWithoutInstall) {
  ServerQueue q;
  q.Append(Make(1, {1}, {1}), 0);
  q.Append(Make(2, {2}, {2}), 0);
  q.MarkInvalid(0);
  std::vector<SeqNum> installed;
  q.Complete(1, 11, {}, [&](const ServerQueue::Entry& e) {
    installed.push_back(e.pos);
  });
  EXPECT_EQ(installed, std::vector<SeqNum>{1});
  EXPECT_EQ(q.begin_pos(), 2);
}

TEST(ServerQueueTest, CompleteIsFirstWriterWins) {
  ServerQueue q;
  q.Append(Make(1, {1}, {1}), 0);
  q.Complete(0, 111, {}, [](const ServerQueue::Entry& e) {
    EXPECT_EQ(e.stable_digest, 111u);
  });
  // A second completion for the same pos is ignored (already popped).
  q.Complete(0, 222, {}, [](const ServerQueue::Entry&) { FAIL(); });
}

TEST(ServerQueueWalkTest, VisitsConflictingEntriesInDescendingOrder) {
  ServerQueue q;
  q.Append(Make(1, {1}, {1}), 0);   // pos 0: writes 1
  q.Append(Make(2, {9}, {9}), 0);   // pos 1: unrelated
  q.Append(Make(3, {1, 2}, {2}), 0);  // pos 2: reads 1, writes 2
  // New action reads 2 -> chain: pos 2 (writes 2), then pos 0 (writes 1,
  // read through pos 2's read set).
  ObjectSet s({ObjectId(2)});
  std::vector<SeqNum> visited;
  const int visits = q.WalkConflicts(
      3, &s, [&](SeqNum pos, const ServerQueue::WalkRec&) {
        visited.push_back(pos);
        return ServerQueue::WalkVerdict::kInclude;
      });
  EXPECT_EQ(visited, (std::vector<SeqNum>{2, 0}));
  EXPECT_EQ(visits, 2);
  // Final S covers both chained reads.
  EXPECT_TRUE(s.Contains(ObjectId(1)));
  EXPECT_TRUE(s.Contains(ObjectId(2)));
}

TEST(ServerQueueWalkTest, ResolveStopsChainThroughSentActions) {
  ServerQueue q;
  q.Append(Make(1, {1}, {1}), 0);     // pos 0: writes 1
  q.Append(Make(2, {1, 2}, {2}), 0);  // pos 1: reads 1, writes 2
  ObjectSet s({ObjectId(2)});
  std::vector<SeqNum> included;
  q.WalkConflicts(2, &s, [&](SeqNum pos, const ServerQueue::WalkRec&) {
    if (pos == 1) {
      // Pretend pos 1 was already sent to this client: resolve.
      return ServerQueue::WalkVerdict::kResolve;
    }
    included.push_back(pos);
    return ServerQueue::WalkVerdict::kInclude;
  });
  // Resolving pos 1 removes object 2 from S; pos 0 writes object 1 which
  // never entered S, so nothing else is included.
  EXPECT_TRUE(included.empty());
  EXPECT_FALSE(s.Contains(ObjectId(2)));
}

TEST(ServerQueueWalkTest, StopAbortsWalk) {
  ServerQueue q;
  q.Append(Make(1, {1}, {1}), 0);
  q.Append(Make(2, {1}, {1}), 0);
  q.Append(Make(3, {1}, {1}), 0);
  ObjectSet s({ObjectId(1)});
  int visited = 0;
  q.WalkConflicts(3, &s, [&](SeqNum, const ServerQueue::WalkRec&) {
    ++visited;
    return ServerQueue::WalkVerdict::kStop;
  });
  EXPECT_EQ(visited, 1);
}

TEST(ServerQueueWalkTest, SkipsInvalidEntries) {
  ServerQueue q;
  q.Append(Make(1, {1}, {1}), 0);
  q.Append(Make(2, {1}, {1}), 0);
  q.MarkInvalid(1);
  ObjectSet s({ObjectId(1)});
  std::vector<SeqNum> visited;
  q.WalkConflicts(2, &s, [&](SeqNum pos, const ServerQueue::WalkRec&) {
    visited.push_back(pos);
    return ServerQueue::WalkVerdict::kInclude;
  });
  EXPECT_EQ(visited, std::vector<SeqNum>{0});
}

TEST(ServerQueueWalkTest, WalksOnlyBelowStart) {
  ServerQueue q;
  q.Append(Make(1, {1}, {1}), 0);  // pos 0
  q.Append(Make(2, {1}, {1}), 0);  // pos 1
  q.Append(Make(3, {1}, {1}), 0);  // pos 2
  ObjectSet s({ObjectId(1)});
  std::vector<SeqNum> visited;
  q.WalkConflicts(1, &s, [&](SeqNum pos, const ServerQueue::WalkRec&) {
    visited.push_back(pos);
    return ServerQueue::WalkVerdict::kInclude;
  });
  EXPECT_EQ(visited, std::vector<SeqNum>{0});
}

TEST(ServerQueueWalkTest, CommittedEntriesNotVisited) {
  ServerQueue q;
  q.Append(Make(1, {1}, {1}), 0);
  q.Append(Make(2, {1}, {1}), 0);
  q.Complete(0, 1, {}, [](const ServerQueue::Entry&) {});
  ObjectSet s({ObjectId(1)});
  std::vector<SeqNum> visited;
  q.WalkConflicts(2, &s, [&](SeqNum pos, const ServerQueue::WalkRec&) {
    visited.push_back(pos);
    return ServerQueue::WalkVerdict::kInclude;
  });
  EXPECT_EQ(visited, std::vector<SeqNum>{1});
}

TEST(ServerQueueWalkTest, EpochStampsResetBetweenWalks) {
  // Two consecutive walks over the same chain must both visit it in
  // full — a stale visit stamp from walk 1 must not suppress walk 2.
  ServerQueue q;
  q.Append(Make(1, {1}, {1}), 0);
  q.Append(Make(2, {1}, {1}), 0);
  for (int round = 0; round < 3; ++round) {
    ObjectSet s({ObjectId(1)});
    std::vector<SeqNum> visited;
    q.WalkConflicts(2, &s, [&](SeqNum pos, const ServerQueue::WalkRec&) {
      visited.push_back(pos);
      return ServerQueue::WalkVerdict::kInclude;
    });
    EXPECT_EQ(visited, (std::vector<SeqNum>{1, 0})) << "round " << round;
  }
  EXPECT_EQ(q.walk_visits_total(), 6u);
}

// Regression coverage for GreatestWriterBelow's lazy prune: committing
// most of a long single-object writer chain leaves a dead prefix in the
// writer index; the first walk afterwards must (a) prune it, (b) return
// exactly the same chain as before the prune, and (c) never resurrect
// positions below the committed frontier.
TEST(ServerQueueWalkTest, LazyPruneFiresWithoutChangingChainResults) {
  ServerQueue q;
  constexpr int kChain = 16;
  for (int i = 0; i < kChain; ++i) {
    q.Append(Make(static_cast<uint64_t>(i + 1), {1}, {1}), 0);
  }
  EXPECT_EQ(q.WriterChainLengthForTest(ObjectId(1)),
            static_cast<size_t>(kChain));

  auto walk_chain = [&q]() {
    ObjectSet s({ObjectId(1)});
    std::vector<SeqNum> visited;
    q.WalkConflicts(q.end_pos(), &s, [&](SeqNum pos, const ServerQueue::WalkRec&) {
      visited.push_back(pos);
      return ServerQueue::WalkVerdict::kInclude;
    });
    return visited;
  };

  // Commit the first 12 positions (75% of the chain): the stored chain
  // still holds all 16 entries until a walk touches it.
  for (SeqNum pos = 0; pos < 12; ++pos) {
    q.Complete(pos, static_cast<ResultDigest>(pos), {},
               [](const ServerQueue::Entry&) {});
  }
  EXPECT_EQ(q.WriterChainLengthForTest(ObjectId(1)),
            static_cast<size_t>(kChain));
  EXPECT_EQ(q.writer_prunes(), 0u);

  const std::vector<SeqNum> after_commit = walk_chain();
  // The prune fired (dead prefix 12 > live suffix 4)...
  EXPECT_GE(q.writer_prunes(), 1u);
  EXPECT_EQ(q.WriterChainLengthForTest(ObjectId(1)), 4u);
  // ...and the walk saw exactly the uncommitted suffix, descending, with
  // nothing below base_ resurrected.
  EXPECT_EQ(after_commit, (std::vector<SeqNum>{15, 14, 13, 12}));
  for (SeqNum pos : after_commit) EXPECT_GE(pos, q.begin_pos());
  // A pruned chain keeps answering identically on repeat walks.
  EXPECT_EQ(walk_chain(), after_commit);

  // Committing the rest drops the chain from the index entirely on the
  // next probe, and the walk finds nothing.
  for (SeqNum pos = 12; pos < kChain; ++pos) {
    q.Complete(pos, static_cast<ResultDigest>(pos), {},
               [](const ServerQueue::Entry&) {});
  }
  EXPECT_TRUE(walk_chain().empty());
  EXPECT_EQ(q.WriterChainLengthForTest(ObjectId(1)), 0u);
}

TEST(ServerQueueWalkTest, DiamondDependencyVisitedOnce) {
  ServerQueue q;
  q.Append(Make(1, {1, 2}, {1, 2}), 0);  // pos 0 writes both
  q.Append(Make(2, {1}, {1}), 0);        // pos 1
  q.Append(Make(3, {2}, {2}), 0);        // pos 2
  // New action reads 1 and 2: chains via pos 1 and pos 2, both lead to
  // pos 0, which must be visited exactly once.
  ObjectSet s({ObjectId(1), ObjectId(2)});
  std::vector<SeqNum> visited;
  q.WalkConflicts(3, &s, [&](SeqNum pos, const ServerQueue::WalkRec&) {
    visited.push_back(pos);
    return ServerQueue::WalkVerdict::kInclude;
  });
  EXPECT_EQ(visited, (std::vector<SeqNum>{2, 1, 0}));
}

TEST(ServerQueueTest, SentSetSpillsPastInlineCapacity) {
  ServerQueue::SentSet sent;
  EXPECT_TRUE(sent.empty());
  for (uint64_t c : {9u, 3u, 7u, 1u, 5u, 3u, 11u, 0u}) sent.insert(ClientId(c));
  EXPECT_FALSE(sent.empty());
  for (uint64_t c : {0u, 1u, 3u, 5u, 7u, 9u, 11u}) {
    EXPECT_EQ(sent.count(ClientId(c)), 1u) << c;
  }
  for (uint64_t c : {2u, 4u, 12u}) EXPECT_EQ(sent.count(ClientId(c)), 0u) << c;
}

TEST(ServerQueueWalkTest, RecordMirrorsEntry) {
  ServerQueue q;
  q.Append(Make(1, {1, 2}, {1}), 0);
  q.MarkInvalid(0);
  EXPECT_FALSE(q.Find(0)->valid);
  EXPECT_FALSE(q.Record(0).valid);
  EXPECT_EQ(q.Record(0).action, q.Find(0)->action.get());
  EXPECT_EQ(q.Record(0).num_links, 1u);
  EXPECT_EQ(q.Record(0).link.id, ObjectId(1));
}

// Differential check of WalkConflicts against the definition it
// implements: a descending scan over every uncommitted entry with an
// explicit closure set S. The randomized queue covers write sets past
// the record's inline link, read sets past its inline ids, invalid
// entries, completions that move the frontier above prev links between
// walks, ring growth and wrap-around, and object ids past the dense
// stamp range.
class WalkReference {
 public:
  WalkReference(const ServerQueue& q, uint64_t walk_seed)
      : q_(q), walk_seed_(walk_seed) {}

  /// A verdict fixed by (walk, pos), so both walks see the same one.
  ServerQueue::WalkVerdict VerdictAt(SeqNum pos) const {
    uint64_t h = walk_seed_ ^ (static_cast<uint64_t>(pos) * 0x9E3779B97F4A7C15ull);
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 32;
    const uint64_t roll = h % 16;
    if (roll == 0 && walk_seed_ % 4 == 0) return ServerQueue::WalkVerdict::kStop;
    if (roll <= 2) return ServerQueue::WalkVerdict::kResolve;
    if (roll == 3) return ServerQueue::WalkVerdict::kSkip;
    return ServerQueue::WalkVerdict::kInclude;
  }

  std::vector<SeqNum> Walk(SeqNum start_pos, std::set<ObjectId>* s) const {
    std::vector<SeqNum> visited;
    for (SeqNum pos = start_pos - 1; pos >= q_.begin_pos(); --pos) {
      const ServerQueue::Entry* entry = q_.Find(pos);
      if (!entry->valid) continue;
      bool hit = false;
      for (ObjectId id : entry->action->WriteSet()) hit |= s->count(id) != 0;
      if (!hit) continue;
      visited.push_back(pos);
      const ServerQueue::WalkVerdict verdict = VerdictAt(pos);
      if (verdict == ServerQueue::WalkVerdict::kStop) break;
      if (verdict == ServerQueue::WalkVerdict::kResolve) {
        for (ObjectId id : entry->action->WriteSet()) s->erase(id);
      } else if (verdict == ServerQueue::WalkVerdict::kInclude) {
        for (ObjectId id : entry->action->ReadSet()) s->insert(id);
      }
    }
    return visited;
  }

 private:
  const ServerQueue& q_;
  uint64_t walk_seed_;
};

TEST(ServerQueueWalkTest, MatchesDescendingScanReference) {
  // Small dense ids, ids just past the dense stamp limit, and far ids.
  std::vector<uint64_t> pool;
  for (uint64_t k = 0; k < 24; ++k) pool.push_back(k);
  for (uint64_t k = 0; k < 4; ++k) pool.push_back((uint64_t{1} << 20) + k);
  for (uint64_t k = 0; k < 4; ++k) pool.push_back((uint64_t{1} << 40) + k);

  Rng rng(17);
  auto pick_ids = [&](size_t n) {
    std::vector<ObjectId> ids;
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(ObjectId(pool[rng.NextBounded(pool.size())]));
    }
    return ids;
  };
  ServerQueue q;
  uint64_t next_id = 1;
  size_t walks = 0, nonempty = 0, spilled_links = 0, spilled_reads = 0;
  size_t max_depth = 0;
  for (int step = 0; step < 6000; ++step) {
    const uint64_t roll = rng.NextBounded(100);
    const size_t depth = q.uncommitted_size();
    max_depth = std::max(max_depth, depth);
    if (depth == 0 || (roll < 45 && depth < 300)) {
      const uint64_t shape = rng.NextBounded(10);
      const size_t writes = shape < 6 ? 1 : shape < 9 ? 2 + rng.NextBounded(2)
                                                      : 4 + rng.NextBounded(6);
      ObjectSet ws(pick_ids(writes));
      ObjectSet rs(pick_ids(rng.NextBounded(11)));
      rs.UnionWith(ws);
      const uint64_t id = next_id++;
      const SeqNum pos = q.Append(
          std::make_shared<SetAction>(ActionId(id), ClientId(id), rs, ws), 0);
      spilled_links += q.Record(pos).num_links > 1;
      spilled_reads +=
          q.Record(pos).num_reads == ServerQueue::WalkRec::kSpilledReads;
    } else if (roll < 65) {
      // Complete mostly near the head so the frontier keeps moving.
      const SeqNum span = std::min<SeqNum>(q.end_pos() - q.begin_pos(), 8);
      const SeqNum pos = q.begin_pos() +
                         static_cast<SeqNum>(rng.NextBounded(
                             static_cast<uint64_t>(span)));
      q.Complete(pos, 1, {}, [](const ServerQueue::Entry&) {});
    } else if (roll < 72) {
      const SeqNum pos = q.begin_pos() + static_cast<SeqNum>(rng.NextBounded(
                                             q.uncommitted_size()));
      q.MarkInvalid(pos);
    } else {
      const uint64_t walk_seed = rng.Next();
      const WalkReference ref(q, walk_seed);
      auto visitor = [&](std::vector<SeqNum>* out) {
        return [&ref, out](SeqNum pos, const ServerQueue::WalkRec&) {
          out->push_back(pos);
          return ref.VerdictAt(pos);
        };
      };
      const SeqNum start = q.begin_pos() + static_cast<SeqNum>(rng.NextBounded(
                                               q.uncommitted_size() + 1));
      // An explicit S.
      ObjectSet s(pick_ids(1 + rng.NextBounded(6)));
      std::set<ObjectId> ref_s(s.begin(), s.end());
      std::vector<SeqNum> visited;
      const int visits = q.WalkConflicts(start, &s, visitor(&visited));
      const std::vector<SeqNum> expected = ref.Walk(start, &ref_s);
      ASSERT_EQ(visited, expected) << "step " << step;
      ASSERT_EQ(visits, static_cast<int>(expected.size()));
      ASSERT_EQ(s.ids(), std::vector<ObjectId>(ref_s.begin(), ref_s.end()))
          << "step " << step;
      // S = RS of the entry at start, kept in the stamps only.
      if (start < q.end_pos()) {
        const ServerQueue::Entry* entry = q.Find(start);
        std::set<ObjectId> rs_s(entry->action->ReadSet().begin(),
                                entry->action->ReadSet().end());
        std::vector<SeqNum> from_entry;
        const int n = q.WalkConflicts(start, nullptr, visitor(&from_entry));
        ASSERT_EQ(from_entry, ref.Walk(start, &rs_s)) << "step " << step;
        ASSERT_EQ(n, static_cast<int>(from_entry.size()));
      }
      ++walks;
      nonempty += !expected.empty();
    }
  }
  // The run exercised what the comment above promises.
  EXPECT_GT(walks, 1000u);
  EXPECT_GT(nonempty, walks / 2);
  EXPECT_GT(spilled_links, 0u);
  EXPECT_GT(spilled_reads, 0u);
  EXPECT_GT(max_depth, 128u);               // the ring grew past 128 slots
  EXPECT_GT(q.end_pos(), SeqNum{4 * 256});  // and wrapped several times
}

}  // namespace
}  // namespace seve
