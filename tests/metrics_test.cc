#include "common/metrics.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shard/shard_stats.h"

namespace seve {
namespace {

TEST(TrafficCounterTest, RecordAccumulates) {
  TrafficCounter c;
  c.Record(100);
  c.Record(50);
  EXPECT_EQ(c.messages, 2);
  EXPECT_EQ(c.bytes, 150);
}

TEST(TrafficStatsTest, TotalBytesSumsDirections) {
  TrafficStats t;
  t.sent.Record(10);
  t.received.Record(30);
  EXPECT_EQ(t.total_bytes(), 40);
}

TEST(TrafficStatsTest, MergeCombines) {
  TrafficStats a, b;
  a.sent.Record(1);
  b.sent.Record(2);
  b.received.Record(3);
  a.Merge(b);
  EXPECT_EQ(a.sent.messages, 2);
  EXPECT_EQ(a.sent.bytes, 3);
  EXPECT_EQ(a.received.bytes, 3);
}

TEST(ProtocolStatsTest, DropRate) {
  ProtocolStats s;
  EXPECT_DOUBLE_EQ(s.DropRate(), 0.0);
  s.actions_submitted = 200;
  s.actions_dropped = 3;
  EXPECT_DOUBLE_EQ(s.DropRate(), 0.015);
}

TEST(ProtocolStatsTest, MergeAddsCountersAndHistograms) {
  ProtocolStats a, b;
  a.actions_submitted = 1;
  a.response_time_us.Add(100);
  b.actions_submitted = 2;
  b.actions_dropped = 1;
  b.response_time_us.Add(300);
  a.Merge(b);
  EXPECT_EQ(a.actions_submitted, 3);
  EXPECT_EQ(a.actions_dropped, 1);
  EXPECT_EQ(a.response_time_us.count(), 2);
  EXPECT_EQ(a.response_time_us.max(), 300);
}

// Gives every table field of `s` its own value: ascending from `*next`
// when `ascending`, else descending, so that across two structs filled
// opposite ways each side wins some max-merged fields.
template <typename S, size_t N>
void Fill(const CounterField<S> (&fields)[N], S* s, bool ascending,
          int64_t* next) {
  for (const CounterField<S>& f : fields) {
    s->*f.member = ascending ? *next : 1000 - *next;
    ++*next;
  }
}

template <typename S, size_t N>
void ExpectMerged(const CounterField<S> (&fields)[N], const S& a,
                  const S& b, const S& merged) {
  for (const CounterField<S>& f : fields) {
    const int64_t x = a.*f.member;
    const int64_t y = b.*f.member;
    EXPECT_EQ(merged.*f.member,
              f.rule == MergeRule::kMax ? std::max(x, y) : x + y)
        << f.key;
  }
}

template <typename S, size_t N>
std::vector<std::string> MaxMerged(const CounterField<S> (&fields)[N]) {
  std::vector<std::string> keys;
  for (const CounterField<S>& f : fields) {
    if (f.rule == MergeRule::kMax) keys.push_back(f.key);
  }
  return keys;
}

// Every counter of every family merges by its table rule: a sum, or the
// larger side for the two peaks. Filled through the tables, so a field
// left out of its table would also be left out here, but then the
// table's coverage check stops the build.
TEST(CounterTablesTest, MergeFollowsEachFieldsRule) {
  ProtocolStats a, b;
  ShardCounters sa, sb;
  for (const bool a_ascends : {true, false}) {
    int64_t next = 1;
    Fill(kProtocolFields, &a, a_ascends, &next);
    Fill(kChannelFields, &a.channel, a_ascends, &next);
    Fill(kFanoutFields, &a.fanout, a_ascends, &next);
    Fill(kSyncFields, &a.sync, a_ascends, &next);
    Fill(kShardFields, &sa, a_ascends, &next);
    next = 1;
    Fill(kProtocolFields, &b, !a_ascends, &next);
    Fill(kChannelFields, &b.channel, !a_ascends, &next);
    Fill(kFanoutFields, &b.fanout, !a_ascends, &next);
    Fill(kSyncFields, &b.sync, !a_ascends, &next);
    Fill(kShardFields, &sb, !a_ascends, &next);

    ProtocolStats merged = a;
    merged.Merge(b);
    ExpectMerged(kProtocolFields, a, b, merged);
    ExpectMerged(kChannelFields, a.channel, b.channel, merged.channel);
    ExpectMerged(kFanoutFields, a.fanout, b.fanout, merged.fanout);
    ExpectMerged(kSyncFields, a.sync, b.sync, merged.sync);
    ShardCounters shard_total = sa;
    shard_total.Merge(sb);
    ExpectMerged(kShardFields, sa, sb, shard_total);
  }
  // The peaks are the only fields that keep the larger side.
  using Keys = std::vector<std::string>;
  EXPECT_EQ(MaxMerged(kProtocolFields), Keys{});
  EXPECT_EQ(MaxMerged(kChannelFields), Keys{});
  EXPECT_EQ(MaxMerged(kFanoutFields), Keys{});
  EXPECT_EQ(MaxMerged(kSyncFields), Keys{"max_chunks_per_tick"});
  EXPECT_EQ(MaxMerged(kShardFields), Keys{"queue_depth_peak"});
}

}  // namespace
}  // namespace seve
