#include "net/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace seve {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.At(300, [&]() { order.push_back(3); });
  loop.At(100, [&]() { order.push_back(1); });
  loop.At(200, [&]() { order.push_back(2); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 300);
}

TEST(EventLoopTest, TiesRunInSchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.At(50, [&order, i]() { order.push_back(i); });
  }
  loop.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, AfterSchedulesRelativeToNow) {
  EventLoop loop;
  VirtualTime seen = -1;
  loop.At(100, [&]() {
    loop.After(50, [&]() { seen = loop.now(); });
  });
  loop.RunUntilIdle();
  EXPECT_EQ(seen, 150);
}

TEST(EventLoopTest, PastTimesClampToNow) {
  EventLoop loop;
  VirtualTime seen = -1;
  loop.At(100, [&]() {
    loop.At(10, [&]() { seen = loop.now(); });  // in the past
  });
  loop.RunUntilIdle();
  EXPECT_EQ(seen, 100);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.At(100, [&]() { ++fired; });
  loop.At(200, [&]() { ++fired; });
  loop.At(301, [&]() { ++fired; });
  loop.RunUntil(300);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), 300);
  loop.RunUntilIdle();
  EXPECT_EQ(fired, 3);
}

TEST(EventLoopTest, RunUntilAdvancesClockEvenWithoutEvents) {
  EventLoop loop;
  loop.RunUntil(5000);
  EXPECT_EQ(loop.now(), 5000);
}

TEST(EventLoopTest, RunOneReturnsFalseWhenEmpty) {
  EventLoop loop;
  EXPECT_FALSE(loop.RunOne());
  loop.At(1, []() {});
  EXPECT_TRUE(loop.RunOne());
  EXPECT_FALSE(loop.RunOne());
}

TEST(EventLoopTest, MaxEventsCapsRunUntilIdle) {
  EventLoop loop;
  // A self-perpetuating event chain.
  std::function<void()> chain = [&]() { loop.After(1, chain); };
  loop.After(1, chain);
  const size_t run = loop.RunUntilIdle(1000);
  EXPECT_EQ(run, 1000u);
  EXPECT_GT(loop.pending(), 0u);
}

TEST(EventLoopTest, EventsRunCounter) {
  EventLoop loop;
  for (int i = 0; i < 5; ++i) loop.At(i, []() {});
  loop.RunUntilIdle();
  EXPECT_EQ(loop.events_run(), 5u);
}

TEST(EventLoopTest, LargeCaptureCallbacksSurviveSlabGrowth) {
  // Captures beyond the inline-callback buffer take the heap fallback;
  // scheduling enough of them grows the slot slab across several chunks.
  // Every capture must run intact and be destroyed exactly once.
  EventLoop loop;
  auto counter = std::make_shared<int>(0);
  struct Big {
    char pad[100] = {};
    std::shared_ptr<int> counter;
  };
  constexpr int kEvents = 1000;  // > several 256-slot chunks
  for (int i = 0; i < kEvents; ++i) {
    Big big;
    big.counter = counter;
    loop.At(i, [big]() { ++*big.counter; });
  }
  EXPECT_EQ(counter.use_count(), 1 + kEvents);
  loop.RunUntilIdle();
  EXPECT_EQ(*counter, kEvents);
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(EventLoopTest, SlotReuseKeepsOrderingStable) {
  // Interleave scheduling and running so slots are freed and reused;
  // (time, insertion-seq) ordering must be unaffected by slot identity.
  EventLoop loop;
  std::vector<int> order;
  for (int round = 0; round < 10; ++round) {
    const VirtualTime base = loop.now();
    for (int i = 4; i >= 0; --i) {
      const int id = round * 5 + i;
      loop.At(base + static_cast<VirtualTime>(i), [&order, id]() {
        order.push_back(id);
      });
    }
    loop.RunUntilIdle();
  }
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, CallbackReschedulingFromInsideCallback) {
  // A callback scheduling new work while it runs (the common protocol
  // pattern) must not invalidate the in-flight callback's storage even
  // when the new work forces slab growth.
  EventLoop loop;
  int fired = 0;
  auto marker = std::make_shared<int>(41);
  loop.At(1, [&loop, &fired, marker]() {
    for (int i = 0; i < 600; ++i) {
      loop.After(1, [&fired]() { ++fired; });
    }
    // Touch the capture after the burst: storage must still be alive.
    EXPECT_EQ(*marker, 41);
  });
  loop.RunUntilIdle();
  EXPECT_EQ(fired, 600);
}

// ---- Differential tests against a (time, seq)-ordered reference ---------

/// The scheduler contract in its plainest form: an ordered map keyed by
/// (clamped time, insertion sequence).
class ReferenceLoop {
 public:
  VirtualTime now() const { return now_; }
  void At(VirtualTime t, std::function<void()> fn) {
    queue_.emplace(std::make_pair(std::max(t, now_), seq_++), std::move(fn));
  }
  void After(Micros delay, std::function<void()> fn) {
    At(now_ + delay, std::move(fn));
  }
  bool RunOne() {
    if (queue_.empty()) return false;
    auto it = queue_.begin();
    now_ = it->first.first;
    std::function<void()> fn = std::move(it->second);
    queue_.erase(it);
    fn();
    return true;
  }
  void RunUntil(VirtualTime deadline) {
    while (!queue_.empty() && queue_.begin()->first.first <= deadline) {
      RunOne();
    }
    now_ = std::max(now_, deadline);
  }
  size_t RunUntilIdle(size_t max_events = SIZE_MAX) {
    size_t run = 0;
    while (run < max_events && RunOne()) ++run;
    return run;
  }
  size_t pending() const { return queue_.size(); }

 private:
  std::map<std::pair<VirtualTime, uint64_t>, std::function<void()>> queue_;
  VirtualTime now_ = 0;
  uint64_t seq_ = 0;
};

/// Knobs of one random schedule.
struct Shape {
  int initial_events = 2000;
  int bursts = 20;          // groups of events at one shared time
  int burst_size = 50;
  VirtualTime horizon = 1 << 22;
  int children_max = 2;     // events each callback schedules, at most
  int64_t budget = 20000;   // total events scheduled, initial ones included
  int phases = 200;         // RunUntil / RunUntilIdle / RunOne steps
};

/// What the observer sees: (event id, now()) per firing, plus (-1, now())
/// and (-2, pending()) after every phase.
using Trace = std::vector<std::pair<int64_t, VirtualTime>>;

/// Runs one seeded schedule on `Loop` and records its trace. Callbacks
/// draw from their own id-seeded Rng, so the program is the same on any
/// loop that fires events in the same order.
template <typename Loop>
class Program {
 public:
  Program(uint64_t seed, const Shape& shape) : seed_(seed), shape_(shape) {}

  Trace Run() {
    Rng rng(seed_);
    for (int b = 0; b < shape_.bursts; ++b) {
      const VirtualTime t = static_cast<VirtualTime>(
          rng.NextBounded(static_cast<uint64_t>(shape_.horizon)));
      for (int i = 0; i < shape_.burst_size; ++i) Schedule(t);
    }
    for (int i = 0; i < shape_.initial_events; ++i) {
      Schedule(static_cast<VirtualTime>(
          rng.NextBounded(static_cast<uint64_t>(shape_.horizon))));
    }
    for (int phase = 0; phase < shape_.phases; ++phase) {
      switch (rng.NextBounded(4)) {
        case 0: {
          // A deadline short of (usually) the next event, then At()s
          // between now() and it: the queue must not have committed to
          // the next event's time while peeking.
          const VirtualTime deadline =
              loop_.now() + static_cast<VirtualTime>(rng.NextBounded(
                                static_cast<uint64_t>(shape_.horizon) / 64 +
                                1));
          loop_.RunUntil(deadline);
          Note();
          const int n = static_cast<int>(rng.NextBounded(4));
          for (int i = 0; i < n; ++i) {
            Schedule(loop_.now() +
                     static_cast<VirtualTime>(rng.NextBounded(64)));
          }
          break;
        }
        case 1:
          loop_.RunUntilIdle(rng.NextBounded(200));  // a cap, often hit
          break;
        case 2:
          for (uint64_t i = rng.NextBounded(8); i > 0; --i) loop_.RunOne();
          break;
        default:
          // Past times clamp to now().
          Schedule(loop_.now() - static_cast<VirtualTime>(rng.NextBounded(
                                     1000)));
          break;
      }
      Note();
    }
    loop_.RunUntilIdle();
    Note();
    return trace_;
  }

 private:
  void Note() {
    trace_.emplace_back(-1, loop_.now());
    trace_.emplace_back(-2, static_cast<VirtualTime>(loop_.pending()));
  }

  void Schedule(VirtualTime t) {
    const int64_t id = next_id_++;
    loop_.At(t, [this, id]() { Fire(id); });
  }

  void Fire(int64_t id) {
    trace_.emplace_back(id, loop_.now());
    Rng rng(seed_ ^ (static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL));
    const int children = static_cast<int>(
        rng.NextBounded(static_cast<uint64_t>(shape_.children_max) + 1));
    for (int c = 0; c < children && next_id_ < shape_.budget; ++c) {
      const VirtualTime now = loop_.now();
      VirtualTime t = now;  // case 0: a tie at now()
      switch (rng.NextBounded(5)) {
        case 1:  // in the past: clamps to now()
          t -= static_cast<VirtualTime>(rng.NextBounded(500) + 1);
          break;
        case 2:
          t += static_cast<VirtualTime>(rng.NextBounded(4));
          break;
        case 3:  // a power of two away: crosses a bucket boundary
          t += VirtualTime{1} << rng.NextBounded(22);
          break;
        case 4:
          t += static_cast<VirtualTime>(
              rng.NextBounded(static_cast<uint64_t>(shape_.horizon)));
          break;
        default:
          break;
      }
      Schedule(t);
    }
  }

  uint64_t seed_;
  Shape shape_;
  Loop loop_;
  Trace trace_;
  int64_t next_id_ = 0;
};

/// Runs the schedule on both loops, requires identical traces, and
/// returns the most events pending after any phase.
VirtualTime ExpectSameTrace(uint64_t seed, const Shape& shape) {
  const Trace expected = Program<ReferenceLoop>(seed, shape).Run();
  const Trace actual = Program<EventLoop>(seed, shape).Run();
  EXPECT_EQ(actual.size(), expected.size()) << "seed " << seed;
  VirtualTime peak_pending = 0;
  for (size_t i = 0; i < std::min(actual.size(), expected.size()); ++i) {
    if (actual[i] != expected[i]) {
      ADD_FAILURE() << "seed " << seed << " step " << i << ": fired ("
                    << actual[i].first << ", " << actual[i].second
                    << "), reference (" << expected[i].first << ", "
                    << expected[i].second << ")";
      break;
    }
    if (expected[i].first == -2) {
      peak_pending = std::max(peak_pending, expected[i].second);
    }
  }
  return peak_pending;
}

TEST(EventLoopDifferentialTest, RandomSchedulesMatchReference) {
  for (uint64_t seed = 1; seed <= 40; ++seed) ExpectSameTrace(seed, Shape{});
}

TEST(EventLoopDifferentialTest, EqualTimeBurstsMatchReference) {
  Shape shape;
  shape.initial_events = 0;
  shape.bursts = 8;
  shape.burst_size = 2000;
  shape.horizon = 16;  // bursts share times, children pile onto them
  shape.children_max = 3;
  for (uint64_t seed = 1; seed <= 10; ++seed) ExpectSameTrace(seed, shape);
}

TEST(EventLoopDifferentialTest, NearTimesAcrossBitBoundariesMatchReference) {
  // Times straddling powers of two exercise every bucket split.
  Shape shape;
  shape.horizon = 1 << 10;
  shape.children_max = 4;
  for (uint64_t seed = 100; seed <= 120; ++seed) ExpectSameTrace(seed, shape);
}

TEST(EventLoopDifferentialTest, MoreThan300kLiveEventsMatchReference) {
  // The up-front move schedule of a 20k-client run: every event is live
  // before the first fires, so the slab and the buckets grow past 300k.
  Shape shape;
  shape.initial_events = 310000;
  shape.bursts = 100;
  shape.burst_size = 100;
  shape.horizon = VirtualTime{12} * 1000 * 1000;
  shape.budget = 400000;
  shape.phases = 50;
  EXPECT_GT(ExpectSameTrace(7, shape), 300000);
}

TEST(EventLoopTest, AtBetweenNowAndNextEventAfterShortRunUntil) {
  EventLoop loop;
  std::vector<int> order;
  loop.At(1000, [&]() { order.push_back(3); });
  loop.At(1'000'000, [&]() { order.push_back(5); });
  loop.RunUntil(900);
  EXPECT_EQ(loop.now(), 900);
  EXPECT_EQ(loop.pending(), 2u);
  // Both land below the next event's time; neither may fire out of order.
  loop.At(950, [&]() { order.push_back(2); });
  loop.At(900, [&]() { order.push_back(1); });
  loop.At(1000, [&]() { order.push_back(4); });
  loop.RunUntil(999'999);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  loop.At(999'999, [&]() { order.push_back(6); });  // before 5's time
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 6, 5}));
  EXPECT_EQ(loop.now(), 1'000'000);
}

TEST(EventLoopTest, RunUntilShortOfReadyEventsLeavesThemPending) {
  // RunOne stops inside an equal-time group; a deadline below that time
  // must run nothing and leave the clock where it is.
  EventLoop loop;
  int fired = 0;
  for (int i = 0; i < 3; ++i) loop.At(100, [&]() { ++fired; });
  ASSERT_TRUE(loop.RunOne());
  loop.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 100);
  EXPECT_EQ(loop.pending(), 2u);
  loop.RunUntil(100);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, PendingCountsEveryQueuedEvent) {
  EventLoop loop;
  EXPECT_EQ(loop.pending(), 0u);
  for (int i = 0; i < 37 * 27; ++i) {
    loop.At(static_cast<VirtualTime>(i % 37) * 1000, []() {});
  }
  EXPECT_EQ(loop.pending(), 999u);
  loop.RunUntil(10'000);  // the 11 times 0..10000, 27 events each
  EXPECT_EQ(loop.pending(), 999u - 11u * 27u);
  EXPECT_EQ(loop.RunUntilIdle(5), 5u);
  EXPECT_EQ(loop.pending(), 999u - 11u * 27u - 5u);
  loop.RunUntilIdle();
  EXPECT_EQ(loop.pending(), 0u);
}

}  // namespace
}  // namespace seve
