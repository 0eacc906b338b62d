#ifndef SEVE_PROTOCOL_SERIALIZER_CORE_H_
#define SEVE_PROTOCOL_SERIALIZER_CORE_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "action/action.h"
#include "common/metrics.h"
#include "net/node.h"
#include "protocol/client_table.h"
#include "protocol/interest.h"
#include "protocol/msg.h"
#include "protocol/options.h"
#include "protocol/server_queue.h"
#include "store/world_state.h"
#include "world/cost_model.h"

namespace seve {

/// The serializer core of both SEVE tiers: the single server
/// (SeveServer) and each node of the zone-sharded tier (SeveShardServer).
/// It owns ζS, the server queue, the client table, the protocol counters,
/// the committed digests and the blind-write id stream, and runs every
/// server half the tiers share (DESIGN.md §11): the Algorithm 6 closure
/// reply, completion and install (Algorithm 5 step 5), the deferred send
/// path, and every client catch-up (DESIGN.md §15): snapshots, IBF delta
/// sync for rejoin and anti-entropy, NACKs and the catch-up pacer.
///
/// A tier plugs in through four hooks: WireStamp, WithholdFromTail,
/// OnInstalled and OnFrontierAdvanced.
class SerializerCore : public Node {
 public:
  /// Catch-up pacing budget: chunks that may enter the send path per
  /// tick. A transfer that fits, with nothing else pacing, ships whole in
  /// its request's CPU slot; a larger one drips out one budget per tick.
  static constexpr int64_t kCatchupChunksPerTick = 64;

  /// This server's ζS (committed prefix only).
  const WorldState& authoritative() const { return state_; }
  SeqNum committed_frontier() const { return queue_.begin_pos(); }
  size_t uncommitted() const { return queue_.uncommitted_size(); }

  ProtocolStats& stats() { return stats_; }
  const ProtocolStats& stats() const { return stats_; }

  /// Wire stamp -> stable digest of every installed action (from
  /// completion messages); ground truth for the consistency checker.
  const DigestMap& committed_digests() const { return committed_digests_; }

 protected:
  SerializerCore(NodeId node, EventLoop* loop, WorldState initial,
                 const CostModel& cost, const InterestModel& interest,
                 const SeveOptions& options,
                 ActionId::ValueType first_blind_id);

  /// One message bound for the send path, sized when it is queued (a
  /// body is immutable once built, so this is what the wire charges).
  struct Outgoing {
    NodeId node;
    int64_t bytes = 0;
    std::shared_ptr<const MessageBody> body;

    template <typename Body>
    static Outgoing Of(NodeId node, std::shared_ptr<Body> body) {
      const int64_t bytes = body->WireSize();
      return Outgoing{node, bytes, std::move(body)};
    }
  };

  /// Hook: the position clients see for local queue position `pos`.
  virtual SeqNum WireStamp(SeqNum pos) const { return pos; }
  /// Hook: true when the live (not yet completed) entry at `pos` must
  /// not ride a catch-up tail.
  virtual bool WithholdFromTail(SeqNum pos) const {
    (void)pos;
    return false;
  }
  /// Hook: runs for every entry installed into ζS.
  virtual void OnInstalled(const ServerQueue::Entry& entry) { (void)entry; }
  /// Hook: runs after a completion moved the committed frontier.
  virtual void OnFrontierAdvanced() {}

  /// A blind write of `values`, drawing the next id of this server's
  /// stream (counted in stats().blind_writes).
  std::shared_ptr<const Action> NewBlindWrite(std::vector<Object> values);
  /// How a queue entry ships to a client, at its wire stamp: a completed
  /// entry as a blind write of its stable result (replayable at any
  /// client, whatever it applied before), otherwise as the action.
  OrderedAction ShipEntry(const ServerQueue::Entry& entry);

  /// Algorithm 6's walk for `client`'s action at `pos`: returns the final
  /// read set S (seeded with RS(a) ∪ `resync`) and leaves the included
  /// positions in closure_included_. An entry already sent to `client`
  /// resolves unless it writes a `resync` object (outputs the client
  /// flagged as non-replayable). Charges the walk to *cpu.
  ObjectSet WalkClosure(ClientId client, SeqNum pos, const ObjectSet& resync,
                        Micros* cpu);
  /// Appends the closure reply for the target at `pos` to *out: the head
  /// blind write of S's values plus `remote_values`, then the valid
  /// `included` entries in ShipEntry form (sorted in place), then the
  /// target. Marks sent(a) for all of them. Appends nothing when the
  /// target is gone or invalid.
  void AssembleClosure(ClientId client, SeqNum pos, const ObjectSet& closure,
                       std::vector<SeqNum>* included,
                       const std::vector<Object>& remote_values, Micros* cpu,
                       std::vector<OrderedAction>* out);

  /// A client's completion for local position `pos`: charges the install,
  /// excludes an out-of-order result from the audit, then CompleteAt.
  void ServeCompletion(const CompletionBody& completion, SeqNum pos);
  /// Records the stable result of `pos` and advances the committed
  /// frontier, installing each entry it passes through InstallCommitted.
  void CompleteAt(SeqNum pos, ResultDigest digest,
                  std::vector<Object> written);
  /// Completes an invalidated head so it stops blocking the frontier;
  /// returns whether there was one.
  bool CompleteInvalidHead();

  static Outgoing DeliverActions(NodeId dst, std::vector<OrderedAction> batch);
  void SendNow(const Outgoing& out) { Send(out.node, out.bytes, out.body); }
  /// Send `out` (every message of `batch`, in order) after `cpu` of
  /// simulated work; the CPU slot is charged even for an empty batch.
  void SendAfter(Outgoing out, Micros cpu);
  void SendAllAfter(std::vector<Outgoing> batch, Micros cpu);

  /// Rejoin (Section III-C): the pre-crash conversation is dead. Drops
  /// the client's paced transfer and queued pushes, starts a fresh
  /// outgoing channel incarnation (send side only — the Rejoin itself
  /// arrived on the client's new incoming stream) and counts the rejoin.
  /// Returns false, doing nothing, for a client not registered here.
  bool ResetClientSession(ClientId client);

  /// Streams ζS in SnapshotChunk slices; the final chunk carries the
  /// live tail. `src` is the requesting node, so an unregistered
  /// requester gets a NACK instead of a silent drop.
  void ServeSnapshot(const SnapshotRequestBody& request, NodeId src);
  /// Delta-sync handshake (DESIGN.md §15), step 1, rejoin and anti-
  /// entropy modes: estimate the set difference from the client's strata
  /// estimator; zero short-circuits (a tail-only delta for rejoin), else
  /// ask the client for an IBF sized to the estimate.
  void ServeSyncRequest(const SyncRequestBody& request, NodeId src);
  /// Step 2: subtract the client's IBF from ζS and peel. A clean decode
  /// ships the symmetric difference (plus the live tail on rejoin); a
  /// failed rejoin peel falls back deterministically to the snapshot.
  void ServeSyncIBF(const SyncIBFBody& body, NodeId src);
  /// Asks `dst` for an IBF sized to `estimate` differing elements.
  void RequestIbf(NodeId dst, ClientId client, uint8_t mode,
                  int64_t estimate);
  /// Deterministic refusal for catch-up requests from unknown clients.
  void SendNack(NodeId dst, ClientId client, uint8_t mode);

  /// True while a paced catch-up to `slot` still has chunks to send. The
  /// rejoining client drops everything else meanwhile, so pushes to the
  /// slot must wait (PumpCatchups re-dirties it when the transfer ends).
  bool InCatchup(ClientTable::Slot slot) const;
  /// Quiesce aid: ships every queued catch-up chunk immediately.
  void DrainCatchups();

  WorldState state_;  // ζS (committed prefix only)
  CostModel cost_;
  InterestModel interest_;
  SeveOptions options_;
  ServerQueue queue_;
  // SoA client registry; slots ascend in registration order, so every
  // per-client walk is deterministic.
  ClientTable clients_;
  ProtocolStats stats_;
  DigestMap committed_digests_;  // keyed by wire stamp
  // Positions whose committed result must not enter the serializability
  // audit (flagged completions; adoptions on the sharded tier).
  // Membership-only (never iterated), so bucket order is unobservable.
  // seve-lint: allow(det-unordered-container): membership test only
  std::unordered_set<SeqNum> audit_excluded_;
  std::vector<SeqNum> closure_included_;  // last WalkClosure's, reused

 private:
  /// Installs a committed entry into ζS, records its stable digest
  /// (unless audit-excluded) at its wire stamp, then runs OnInstalled.
  void InstallCommitted(const ServerQueue::Entry& entry);

  /// An in-flight paced transfer.
  struct PendingCatchup {
    ClientTable::Slot slot = 0;
    ClientId client = ClientId::Invalid();
    std::vector<Outgoing> chunks;
    std::vector<SeqNum> tail_positions;
    size_t next = 0;  // first unsent chunk
  };

  /// Wraps prepared chunk bodies, bound for `dst`, as sized messages.
  template <typename Body>
  static std::vector<Outgoing> Seal(NodeId dst,
                                    std::vector<std::shared_ptr<Body>> bodies);
  /// Captures the live uncommitted tail (ShipEntry form) WITHOUT marking
  /// anything sent; the included positions land in *positions so they
  /// are marked when the final chunk actually enters the send path (an
  /// abandoned transfer must not lose them).
  void CollectTail(std::vector<OrderedAction>* tail,
                   std::vector<SeqNum>* positions);
  void MarkTailSent(const std::vector<SeqNum>& positions, ClientId client);
  /// Builds and dispatches the SyncDelta chunk stream for a decoded plan
  /// (rejoin mode appends the live tail to the last chunk).
  void SendDelta(ClientTable::Slot slot, ClientId client, uint8_t mode,
                 const std::vector<ObjectId>& ship,
                 const std::vector<ObjectId>& remove);
  /// Ships a prepared catch-up: whole in the request's CPU slot when it
  /// fits one tick's budget and nothing is pacing, else paced.
  void DispatchCatchup(ClientTable::Slot slot, ClientId client,
                       std::vector<Outgoing> chunks,
                       std::vector<SeqNum> tail_positions, Micros cpu);
  /// Sends the next paced batch (at most kCatchupChunksPerTick chunks
  /// across all transfers) and re-arms the per-tick pacer while any
  /// transfer is unfinished.
  void PumpCatchups();
  /// Sends pc's chunks up to (excluding) index `until`, marking the tail
  /// sent just before the final chunk goes out.
  void SendChunks(PendingCatchup* pc, size_t until);
  /// Objects per snapshot/delta chunk.
  int64_t ObjectsPerChunk() const;
  /// What the full snapshot of the current ζS would put on the wire —
  /// the bytes-saved baseline for sync.full_bytes_estimate.
  int64_t FullSnapshotBytesEstimate() const;

  ActionId::ValueType next_blind_id_;
  // Paced catch-up transfers (empty in steady state).
  std::vector<PendingCatchup> catchups_;
  bool catchup_timer_armed_ = false;
};

}  // namespace seve

#endif  // SEVE_PROTOCOL_SERIALIZER_CORE_H_
