#include "net/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "shard/shard_map.h"

namespace seve {
namespace {

struct PingBody : MessageBody {
  int value = 0;
  explicit PingBody(int v) : value(v) {}
  int kind() const override { return 1; }
};

/// Test node that records arrivals and optionally does CPU work per
/// message.
class RecorderNode : public Node {
 public:
  RecorderNode(NodeId id, EventLoop* loop, Micros work = 0)
      : Node(id, loop), work_(work) {}

  std::vector<std::pair<VirtualTime, int>> arrivals;
  std::vector<VirtualTime> work_done_at;

  using Node::Send;  // expose for tests

 protected:
  void OnMessage(const Message& msg) override {
    const auto& ping = static_cast<const PingBody&>(*msg.body);
    arrivals.emplace_back(loop()->now(), ping.value);
    if (work_ > 0) {
      SubmitWork(work_, [this]() { work_done_at.push_back(loop()->now()); });
    }
  }

 private:
  Micros work_;
};

TEST(NetworkTest, LatencyOnlyDelivery) {
  EventLoop loop;
  Network net(&loop);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop);
  net.AddNode(&a);
  net.AddNode(&b);
  net.ConnectBidirectional(NodeId(1), NodeId(2),
                           LinkParams::LatencyOnly(1000));

  a.Send(NodeId(2), 100, std::make_shared<PingBody>(7));
  loop.RunUntilIdle();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].first, 1000);
  EXPECT_EQ(b.arrivals[0].second, 7);
}

TEST(NetworkTest, NoLinkIsAnError) {
  EventLoop loop;
  Network net(&loop);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop);
  net.AddNode(&a);
  net.AddNode(&b);
  Message msg{NodeId(1), NodeId(2), 10, 0, std::make_shared<PingBody>(0)};
  EXPECT_EQ(net.Send(msg).code(), StatusCode::kNotFound);
}

TEST(NetworkTest, BandwidthSerializesFrames) {
  EventLoop loop;
  Network net(&loop);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop);
  net.AddNode(&a);
  net.AddNode(&b);
  // 1 byte/us, zero latency: a 1000-byte frame takes 1000 us on the wire.
  LinkParams link;
  link.latency_us = 0;
  link.bytes_per_us = 1.0;
  net.ConnectDirected(NodeId(1), NodeId(2), link);

  a.Send(NodeId(2), 1000, std::make_shared<PingBody>(1));
  a.Send(NodeId(2), 1000, std::make_shared<PingBody>(2));
  loop.RunUntilIdle();
  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(b.arrivals[0].first, 1000);  // first frame done at 1000
  EXPECT_EQ(b.arrivals[1].first, 2000);  // second queued behind it
}

TEST(NetworkTest, FromKbpsConversion) {
  // 100 Kbps = 12.5 bytes/ms = 0.0125 bytes/us.
  const LinkParams link = LinkParams::FromKbps(0, 100.0);
  EXPECT_NEAR(link.bytes_per_us, 0.0125, 1e-9);
}

TEST(NetworkTest, FromKbpsPropagatesOverheadAndDropProbability) {
  const LinkParams link = LinkParams::FromKbps(119'000, 100.0,
                                               /*overhead=*/28,
                                               /*drop_probability=*/0.25);
  EXPECT_EQ(link.latency_us, 119'000);
  EXPECT_NEAR(link.bytes_per_us, 0.0125, 1e-9);
  EXPECT_EQ(link.per_message_overhead_bytes, 28);
  EXPECT_DOUBLE_EQ(link.drop_probability, 0.25);
}

TEST(NetworkTest, FromKbpsZeroRateIsLatencyOnlySentinel) {
  // kbps <= 0 must produce the bytes_per_us == 0 "infinite bandwidth"
  // sentinel, not a division artifact (inf/nan serialization times).
  const LinkParams zero = LinkParams::FromKbps(500, 0.0, 28, 0.1);
  EXPECT_EQ(zero.bytes_per_us, 0.0);
  EXPECT_EQ(zero.per_message_overhead_bytes, 28);
  EXPECT_DOUBLE_EQ(zero.drop_probability, 0.1);
  EXPECT_EQ(LinkParams::FromKbps(500, -7.5).bytes_per_us, 0.0);

  // A zero-rate link behaves exactly like LatencyOnly: delivery after
  // pure propagation delay regardless of frame size.
  EventLoop loop;
  Network net(&loop);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop);
  net.AddNode(&a);
  net.AddNode(&b);
  net.ConnectDirected(NodeId(1), NodeId(2), LinkParams::FromKbps(500, 0.0));
  a.Send(NodeId(2), 1'000'000, std::make_shared<PingBody>(1));
  loop.RunUntilIdle();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].first, 500);
}

TEST(NetworkTest, OverheadLargerThanPayloadStillTransmits) {
  // A 1-byte payload with 100 bytes of framing: the link charges the
  // full 101 bytes of serialization time and both endpoints account it.
  EventLoop loop;
  Network net(&loop);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop);
  net.AddNode(&a);
  net.AddNode(&b);
  LinkParams link;
  link.bytes_per_us = 1.0;
  link.per_message_overhead_bytes = 100;
  net.ConnectDirected(NodeId(1), NodeId(2), link);
  a.Send(NodeId(2), 1, std::make_shared<PingBody>(1));
  loop.RunUntilIdle();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].first, 101);
  EXPECT_EQ(a.traffic().sent.bytes, 101);
  EXPECT_EQ(b.traffic().received.bytes, 101);
}

TEST(NetworkTest, PerMessageOverheadCharged) {
  EventLoop loop;
  Network net(&loop);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop);
  net.AddNode(&a);
  net.AddNode(&b);
  LinkParams link;
  link.bytes_per_us = 1.0;
  link.per_message_overhead_bytes = 28;
  net.ConnectDirected(NodeId(1), NodeId(2), link);
  a.Send(NodeId(2), 100, std::make_shared<PingBody>(1));
  loop.RunUntilIdle();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].first, 128);
  EXPECT_EQ(a.traffic().sent.bytes, 128);
  EXPECT_EQ(b.traffic().received.bytes, 128);
}

TEST(NetworkTest, DropProbabilityOneLosesEverything) {
  EventLoop loop;
  Network net(&loop, 7);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop);
  net.AddNode(&a);
  net.AddNode(&b);
  LinkParams link = LinkParams::LatencyOnly(10);
  link.drop_probability = 1.0;
  net.ConnectDirected(NodeId(1), NodeId(2), link);
  for (int i = 0; i < 10; ++i) {
    a.Send(NodeId(2), 10, std::make_shared<PingBody>(i));
  }
  loop.RunUntilIdle();
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_EQ(net.messages_dropped(), 10);
}

TEST(NetworkTest, DroppedFrameStillOccupiesTheLink) {
  // Loss happens on the wire or beyond: a dropped frame was still clocked
  // out of the NIC, so it must delay the next frame on the FIFO link.
  EventLoop loop;
  Network net(&loop, 7);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop);
  net.AddNode(&a);
  net.AddNode(&b);
  LinkParams lossy;
  lossy.bytes_per_us = 1.0;
  lossy.drop_probability = 1.0;
  net.ConnectDirected(NodeId(1), NodeId(2), lossy);
  a.Send(NodeId(2), 1000, std::make_shared<PingBody>(1));  // lost at t=1000

  // Heal the link (drop_probability 0). Reconnecting must not reset the
  // serialization backlog left by the lost frame.
  LinkParams clean = lossy;
  clean.drop_probability = 0.0;
  net.ConnectDirected(NodeId(1), NodeId(2), clean);
  a.Send(NodeId(2), 1000, std::make_shared<PingBody>(2));
  loop.RunUntilIdle();

  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].second, 2);
  // Queued behind the lost frame: 1000 us for it, 1000 us for this one.
  EXPECT_EQ(b.arrivals[0].first, 2000);
  EXPECT_EQ(net.messages_dropped(), 1);
}

TEST(NetworkTest, ReconnectPreservesLinkBacklog) {
  EventLoop loop;
  Network net(&loop);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop);
  net.AddNode(&a);
  net.AddNode(&b);
  LinkParams slow;
  slow.bytes_per_us = 1.0;
  net.ConnectDirected(NodeId(1), NodeId(2), slow);
  a.Send(NodeId(2), 1000, std::make_shared<PingBody>(1));  // busy until 1000

  LinkParams fast;
  fast.bytes_per_us = 2.0;
  net.ConnectDirected(NodeId(1), NodeId(2), fast);  // upgrade mid-flight
  a.Send(NodeId(2), 1000, std::make_shared<PingBody>(2));
  loop.RunUntilIdle();

  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(b.arrivals[0].first, 1000);
  // New rate applies, but only after the in-flight frame finishes.
  EXPECT_EQ(b.arrivals[1].first, 1500);
}

TEST(NetworkTest, SenderChargedForDroppedFrames) {
  // The sender's counter and the link always see the frame; only the
  // receiver's counter records actual deliveries, so the sent-received
  // asymmetry measures loss.
  EventLoop loop;
  Network net(&loop, 7);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop);
  net.AddNode(&a);
  net.AddNode(&b);
  LinkParams link = LinkParams::LatencyOnly(10);
  link.drop_probability = 1.0;
  net.ConnectDirected(NodeId(1), NodeId(2), link);
  a.Send(NodeId(2), 100, std::make_shared<PingBody>(1));
  loop.RunUntilIdle();

  EXPECT_EQ(a.traffic().sent.messages, 1);
  EXPECT_EQ(a.traffic().sent.bytes, 100);
  EXPECT_EQ(b.traffic().received.messages, 0);
  EXPECT_EQ(b.traffic().received.bytes, 0);
  EXPECT_EQ(net.messages_dropped(), 1);
}

TEST(NetworkTest, FailedNodeDropsDeliveries) {
  EventLoop loop;
  Network net(&loop);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop);
  net.AddNode(&a);
  net.AddNode(&b);
  net.ConnectBidirectional(NodeId(1), NodeId(2),
                           LinkParams::LatencyOnly(10));
  b.set_failed(true);
  a.Send(NodeId(2), 10, std::make_shared<PingBody>(1));
  loop.RunUntilIdle();
  EXPECT_TRUE(b.arrivals.empty());
}

TEST(NodeTest, CpuWorkSerializes) {
  EventLoop loop;
  Network net(&loop);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop, /*work=*/500);
  net.AddNode(&a);
  net.AddNode(&b);
  net.ConnectDirected(NodeId(1), NodeId(2), LinkParams::LatencyOnly(0));
  for (int i = 0; i < 3; ++i) {
    a.Send(NodeId(2), 10, std::make_shared<PingBody>(i));
  }
  loop.RunUntilIdle();
  // All messages arrive at t=0; work items serialize: 500, 1000, 1500.
  ASSERT_EQ(b.work_done_at.size(), 3u);
  EXPECT_EQ(b.work_done_at[0], 500);
  EXPECT_EQ(b.work_done_at[1], 1000);
  EXPECT_EQ(b.work_done_at[2], 1500);
  EXPECT_EQ(b.cpu_busy_us(), 1500);
}

TEST(NodeTest, LoadFactorInflatesWork) {
  EventLoop loop;
  RecorderNode n(NodeId(1), &loop);
  n.set_load_factor(2.0);
  VirtualTime done = -1;
  n.SubmitWork(100, [&]() { done = loop.now(); });
  loop.RunUntilIdle();
  EXPECT_EQ(done, 200);
}

TEST(NodeTest, CpuBacklogReflectsQueuedWork) {
  EventLoop loop;
  RecorderNode n(NodeId(1), &loop);
  n.SubmitWork(1000, []() {});
  n.SubmitWork(1000, []() {});
  EXPECT_EQ(n.CpuBacklog(), 2000);
  loop.RunUntilIdle();
  EXPECT_EQ(n.CpuBacklog(), 0);
}

TEST(NetworkTest, TotalTrafficAggregates) {
  EventLoop loop;
  Network net(&loop);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop);
  net.AddNode(&a);
  net.AddNode(&b);
  net.ConnectBidirectional(NodeId(1), NodeId(2),
                           LinkParams::LatencyOnly(1));
  a.Send(NodeId(2), 50, std::make_shared<PingBody>(1));
  loop.RunUntilIdle();
  const TrafficStats total = net.TotalTraffic();
  EXPECT_EQ(total.sent.bytes, 50);
  EXPECT_EQ(total.received.bytes, 50);
}

TEST(NetworkTest, ConnectDirectedBeforeAddNode) {
  // The runner may name a node in a link before registering it.
  EventLoop loop;
  Network net(&loop);
  net.ConnectDirected(NodeId(1), NodeId(2), LinkParams::LatencyOnly(10));
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop);
  net.AddNode(&b);
  net.AddNode(&a);
  EXPECT_EQ(net.FindNode(NodeId(1)), &a);
  EXPECT_EQ(net.FindNode(NodeId(2)), &b);
  a.Send(NodeId(2), 40, std::make_shared<PingBody>(3));
  loop.RunUntilIdle();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0], (std::pair<VirtualTime, int>{10, 3}));
  EXPECT_EQ(a.traffic().sent.bytes, 40);
}

TEST(NetworkTest, ReAddingANodeIdReplacesTheNode) {
  EventLoop loop;
  Network net(&loop);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop),
      b2(NodeId(2), &loop);
  net.AddNode(&a);
  net.AddNode(&b);
  net.ConnectBidirectional(NodeId(1), NodeId(2), LinkParams::LatencyOnly(5));
  a.Send(NodeId(2), 30, std::make_shared<PingBody>(1));
  loop.RunUntilIdle();

  net.AddNode(&b2);
  EXPECT_EQ(net.FindNode(NodeId(2)), &b2);
  // The link survives the replacement and now delivers to the new node.
  a.Send(NodeId(2), 20, std::make_shared<PingBody>(2));
  loop.RunUntilIdle();
  ASSERT_EQ(b.arrivals.size(), 1u);
  ASSERT_EQ(b2.arrivals.size(), 1u);
  EXPECT_EQ(b2.arrivals[0].second, 2);
  // The replaced node no longer counts; the replacement counts once.
  const TrafficStats total = net.TotalTraffic();
  EXPECT_EQ(total.sent.bytes, 50);
  EXPECT_EQ(total.received.bytes, 20);
}

TEST(NetworkTest, TotalTrafficUnchangedByReplacements) {
  EventLoop loop;
  Network net(&loop);
  RecorderNode a(NodeId(1), &loop), b(NodeId(2), &loop);
  net.AddNode(&a);
  net.AddNode(&b);
  net.ConnectBidirectional(NodeId(1), NodeId(2), LinkParams::LatencyOnly(1));
  a.Send(NodeId(2), 70, std::make_shared<PingBody>(1));
  b.Send(NodeId(1), 30, std::make_shared<PingBody>(2));
  loop.RunUntilIdle();
  const TrafficStats before = net.TotalTraffic();
  // Re-adding the same nodes and re-connecting the same links changes
  // neither the node set nor any counter.
  net.AddNode(&b);
  net.AddNode(&a);
  net.ConnectBidirectional(NodeId(1), NodeId(2), LinkParams::LatencyOnly(9));
  const TrafficStats after = net.TotalTraffic();
  EXPECT_EQ(before.sent.bytes, 100);
  EXPECT_EQ(after.sent.bytes, before.sent.bytes);
  EXPECT_EQ(after.sent.messages, before.sent.messages);
  EXPECT_EQ(after.received.bytes, before.received.bytes);
  EXPECT_EQ(after.received.messages, before.received.messages);
}

TEST(NetworkTest, FarNodeIdsRouteNextToShardIds) {
  // Ids far above the runner's client range share the table with the
  // shard server ids and with id 0.
  EventLoop loop;
  Network net(&loop);
  const NodeId far(1ull << 40);
  const NodeId shard0 = ShardServerNode(0);
  const NodeId shard1 = ShardServerNode(1);
  RecorderNode f(far, &loop), s0(shard0, &loop), s1(shard1, &loop),
      zero(NodeId(0), &loop);
  for (RecorderNode* n : {&f, &s0, &s1, &zero}) net.AddNode(n);
  EXPECT_EQ(shard0.value(), kShardNodeIdBase);
  net.ConnectBidirectional(far, shard0, LinkParams::LatencyOnly(3));
  net.ConnectBidirectional(far, shard1, LinkParams::LatencyOnly(4));
  net.ConnectDirected(NodeId(0), far, LinkParams::LatencyOnly(5));
  f.Send(shard0, 10, std::make_shared<PingBody>(1));
  f.Send(shard1, 10, std::make_shared<PingBody>(2));
  s0.Send(far, 10, std::make_shared<PingBody>(3));
  zero.Send(far, 10, std::make_shared<PingBody>(4));
  loop.RunUntilIdle();
  ASSERT_EQ(s0.arrivals.size(), 1u);
  ASSERT_EQ(s1.arrivals.size(), 1u);
  ASSERT_EQ(f.arrivals.size(), 2u);
  EXPECT_EQ(s0.arrivals[0], (std::pair<VirtualTime, int>{3, 1}));
  EXPECT_EQ(s1.arrivals[0], (std::pair<VirtualTime, int>{4, 2}));
  EXPECT_EQ(f.arrivals[0], (std::pair<VirtualTime, int>{3, 3}));
  EXPECT_EQ(f.arrivals[1], (std::pair<VirtualTime, int>{5, 4}));
  // Only 0 -> far was connected; the reverse direction does not exist.
  Message back{far, NodeId(0), 1, 0, std::make_shared<PingBody>(0)};
  EXPECT_EQ(net.Send(back).code(), StatusCode::kNotFound);
  EXPECT_EQ(net.FindNode(far), &f);
}

TEST(NetworkTest, LinkToUnregisteredDestinationIsNotFound) {
  EventLoop loop;
  Network net(&loop);
  RecorderNode a(NodeId(1), &loop);
  net.AddNode(&a);
  net.ConnectDirected(NodeId(1), NodeId(2), LinkParams::LatencyOnly(1));
  Message msg{NodeId(1), NodeId(2), 10, 0, std::make_shared<PingBody>(0)};
  EXPECT_EQ(net.Send(msg).code(), StatusCode::kNotFound);
  // Rejected before the wire: nothing is charged or scheduled.
  EXPECT_EQ(a.traffic().sent.messages, 0);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(NetworkTest, FindNodeOfUnknownIdIsNull) {
  EventLoop loop;
  Network net(&loop);
  EXPECT_EQ(net.FindNode(NodeId(1)), nullptr);
  RecorderNode a(NodeId(1), &loop);
  net.AddNode(&a);
  net.ConnectDirected(NodeId(1), NodeId(7), LinkParams::LatencyOnly(1));
  EXPECT_EQ(net.FindNode(NodeId(1)), &a);
  EXPECT_EQ(net.FindNode(NodeId(7)), nullptr);  // named by a link only
  EXPECT_EQ(net.FindNode(NodeId(8)), nullptr);
  EXPECT_EQ(net.FindNode(NodeId(1ull << 40)), nullptr);
}

}  // namespace
}  // namespace seve
