#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "wire/frame.h"
#include "wire/serializers.h"

namespace seve {

Network::Network(EventLoop* loop, uint64_t seed) : loop_(loop), rng_(seed) {
  // Codec registration is cheap and idempotent; doing it here means every
  // Network can switch into kEncoded/kVerify without further setup.
  wire::EnsureDefaultCodecs();
}

void Network::ApplyWireMode(Message* msg) {
  if (wire_mode_ == WireMode::kDeclared || msg->body == nullptr) return;
  const int kind = msg->body->kind();
  const Result<wire::Bytes> encoded = wire::EncodeMessage(*msg->body);
  if (!encoded.ok()) {
    // No codec (or a kind-number collision): keep the declared size but
    // flag it — tests assert this never happens on real protocol paths.
    wire_audit_.RecordUnencodable(kind);
    return;
  }
  if (wire_mode_ == WireMode::kVerify) {
    wire::Bytes reencoded;
    const Status st =
        wire::DecodeMessage(encoded->data(), encoded->size(), nullptr,
                            &reencoded);
    const size_t body_len = encoded->size() - wire::kFrameHeaderBytes;
    const bool match =
        st.ok() && reencoded.size() == body_len &&
        (body_len == 0 ||
         std::memcmp(reencoded.data(),
                     encoded->data() + wire::kFrameHeaderBytes,
                     body_len) == 0);
    if (!match) {
      wire_audit_.RecordVerifyFailure(kind);
      SEVE_LOG(kError) << "wire verify mismatch for kind " << kind << " ("
                       << wire::MessageKindName(kind)
                       << "): " << (st.ok() ? "re-encode differs"
                                            : st.ToString());
    }
  }
  wire_audit_.RecordEncoded(kind, msg->bytes,
                            static_cast<int64_t>(encoded->size()));
  msg->bytes = static_cast<int64_t>(encoded->size());
}

uint32_t Network::SlotOf(NodeId id) {
  const auto [slot, inserted] = slot_of_.TryEmplace(id);
  if (inserted) {
    *slot = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(nullptr);
  }
  return *slot;
}

void Network::AddNode(Node* node) {
  const uint32_t slot = SlotOf(node->id());
  if (nodes_[slot] == nullptr) registered_.push_back(slot);
  nodes_[slot] = node;
  node->set_network(this);
}

void Network::ConnectBidirectional(NodeId a, NodeId b,
                                   const LinkParams& params) {
  ConnectDirected(a, b, params);
  ConnectDirected(b, a, params);
}

void Network::ConnectDirected(NodeId src, NodeId dst,
                              const LinkParams& params) {
  const uint32_t src_slot = SlotOf(src);
  const uint32_t dst_slot = SlotOf(dst);
  // Preserve the serialization backlog (free_at) when reconfiguring an
  // existing link mid-run: swapping parameters does not clear the frames
  // already clocked onto the wire.
  const auto [link, inserted] = links_.TryEmplace({src.value(), dst.value()});
  if (inserted) {
    link->src = src_slot;
    link->dst = dst_slot;
  }
  link->params = params;
}

Status Network::Send(Message msg) {
  LinkState* link = links_.Find({msg.src.value(), msg.dst.value()});
  if (link == nullptr) {
    return Status::NotFound("no link between nodes");
  }
  Node* dst_node = nodes_[link->dst];
  if (dst_node == nullptr) {
    return Status::NotFound("unknown destination node");
  }
  Node* src_node = nodes_[link->src];

  ApplyWireMode(&msg);

  const int64_t wire_bytes =
      msg.bytes + link->params.per_message_overhead_bytes;
  msg.sent_at = loop_->now();

  if (src_node != nullptr) {
    src_node->mutable_traffic()->sent.Record(wire_bytes);
  }

  // FIFO serialization: the frame occupies the link for tx microseconds —
  // charged before the loss decision, because real loss happens on the
  // wire or beyond, after the bytes were clocked out of the NIC.
  Micros tx = 0;
  if (link->params.bytes_per_us > 0.0) {
    tx = static_cast<Micros>(std::ceil(static_cast<double>(wire_bytes) /
                                       link->params.bytes_per_us));
  }
  const VirtualTime start = std::max(loop_->now(), link->free_at);
  link->free_at = start + tx;
  const VirtualTime arrival = start + tx + link->params.latency_us;

  if (link->params.drop_probability > 0.0 &&
      rng_.NextBool(link->params.drop_probability)) {
    ++messages_dropped_;
    return Status::OK();  // loss is not an error to the sender
  }

  Message delivered = std::move(msg);
  delivered.bytes = wire_bytes;
  loop_->At(arrival, [dst_node, delivered = std::move(delivered)]() {
    dst_node->Deliver(delivered);
  });
  return Status::OK();
}

TrafficStats Network::TotalTraffic() const {
  TrafficStats total;
  for (const uint32_t slot : registered_) total.Merge(nodes_[slot]->traffic());
  return total;
}

Node* Network::FindNode(NodeId id) const {
  const uint32_t* slot = slot_of_.Find(id);
  return slot == nullptr ? nullptr : nodes_[*slot];
}

}  // namespace seve
