#ifndef SEVE_NET_NETWORK_H_
#define SEVE_NET_NETWORK_H_

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "net/event_loop.h"
#include "net/message.h"
#include "net/node.h"
#include "wire/audit.h"
#include "wire/wire_mode.h"

namespace seve {

/// Point-to-point link parameters. The paper's testbed: ~238 ms average
/// RTT injected by EMULab (so ~119 ms one-way) and 100 Kbps per-client
/// bandwidth caps.
struct LinkParams {
  /// One-way propagation delay.
  Micros latency_us = 0;
  /// Serialization rate in bytes per microsecond; 0 means infinite
  /// (latency-only link). 100 Kbps = 0.0125 bytes/us.
  double bytes_per_us = 0.0;
  /// Fixed framing overhead added to every message (headers).
  int64_t per_message_overhead_bytes = 0;
  /// Probability a message is silently lost (failure injection).
  double drop_probability = 0.0;

  static LinkParams LatencyOnly(Micros latency) {
    return LinkParams{latency, 0.0, 0, 0.0};
  }
  /// Converts a Kbps rate into the serialization-rate representation.
  /// `kbps <= 0` yields a latency-only link (the bytes_per_us == 0
  /// sentinel) rather than a division artifact; overhead and drop
  /// probability propagate into the returned params unchanged.
  static LinkParams FromKbps(Micros latency, double kbps,
                             int64_t overhead = 0,
                             double drop_probability = 0.0) {
    const double bytes_per_us = kbps > 0.0 ? kbps * 1000.0 / 8.0 / 1e6 : 0.0;
    return LinkParams{latency, bytes_per_us, overhead, drop_probability};
  }
};

/// The simulated network: unidirectional links between registered nodes.
///
/// Each link models FIFO serialization (a message occupies the link for
/// bytes/bandwidth microseconds before propagating), so a 100 Kbps client
/// downlink genuinely backs up when the Broadcast baseline fans out.
class Network {
 public:
  /// `seed` drives loss decisions only; lossless networks are fully
  /// deterministic regardless.
  Network(EventLoop* loop, uint64_t seed = 0);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node; the network does not own it.
  void AddNode(Node* node);

  /// Creates (or replaces) the two directed links a->b and b->a.
  void ConnectBidirectional(NodeId a, NodeId b, const LinkParams& params);

  /// Creates the directed link src->dst, or swaps the parameters of an
  /// existing one in place (its serialization backlog is preserved).
  void ConnectDirected(NodeId src, NodeId dst, const LinkParams& params);

  /// Controls how Send computes the byte size charged to the link:
  /// kDeclared trusts `Message::bytes` (seed behaviour), kEncoded runs
  /// the body through the wire codec and charges the real frame size,
  /// kVerify additionally decodes + re-encodes every frame and counts
  /// mismatches. See wire/wire_mode.h.
  void set_wire_mode(WireMode mode) { wire_mode_ = mode; }
  WireMode wire_mode() const { return wire_mode_; }

  /// Declared-vs-encoded accounting per message kind; populated only in
  /// kEncoded / kVerify modes.
  const wire::WireAudit& wire_audit() const { return wire_audit_; }

  /// kVerify round-trip mismatches observed so far (0 in other modes).
  int64_t wire_verify_failures() const {
    return wire_audit_.TotalVerifyFailures();
  }

  /// Sends a message; fails if no link or unknown destination. The
  /// sender's traffic counter and the link's FIFO serialization time are
  /// always charged (the bytes entered the wire even when the frame is
  /// later lost); the receiver's counter records only frames actually
  /// delivered, so sent-vs-received asymmetry measures loss.
  Status Send(Message msg);

  /// Aggregate traffic across all registered nodes (each byte counted
  /// once as sent and once as received).
  TrafficStats TotalTraffic() const;

  int64_t messages_dropped() const { return messages_dropped_; }

  Node* FindNode(NodeId id) const;

 private:
  /// One directed link. Its endpoints are slots of `nodes_`, so Send
  /// reaches both nodes with array reads after its one link probe.
  struct LinkState {
    LinkParams params;
    VirtualTime free_at = 0;  // when the link finishes its current frame
    uint32_t src = 0;
    uint32_t dst = 0;
  };
  struct LinkKey {
    uint64_t src = 0;
    uint64_t dst = 0;
    friend bool operator==(const LinkKey&, const LinkKey&) = default;
  };
  struct LinkKeyHash {
    size_t operator()(const LinkKey& k) const {
      // Fold the pair, then reuse NodeId's SplitMix64 finalizer.
      return std::hash<NodeId>{}(
          NodeId(k.src * 0x9e3779b97f4a7c15ULL ^ k.dst));
    }
  };

  /// Applies the wire mode to a message about to enter the wire:
  /// recomputes `msg->bytes` from the real encoding (kEncoded/kVerify)
  /// and feeds the audit. Declared mode is a no-op.
  void ApplyWireMode(Message* msg);

  /// The slot of `id` in `nodes_`, created empty on first sight (a link
  /// may name a node before it is added).
  uint32_t SlotOf(NodeId id);

  EventLoop* loop_;
  Rng rng_;
  FlatMap<NodeId, uint32_t> slot_of_;
  std::vector<Node*> nodes_;          // by slot; nullptr until AddNode
  std::vector<uint32_t> registered_;  // slots in AddNode order
  FlatMap<LinkKey, LinkState, LinkKeyHash> links_;
  int64_t messages_dropped_ = 0;
  WireMode wire_mode_ = WireMode::kDeclared;
  wire::WireAudit wire_audit_;
};

}  // namespace seve

#endif  // SEVE_NET_NETWORK_H_
