#ifndef SEVE_SHARD_SHARD_SERVER_H_
#define SEVE_SHARD_SHARD_SERVER_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "action/action.h"
#include "common/flat_map.h"
#include "protocol/serializer_core.h"
#include "shard/shard_commit.h"
#include "shard/shard_map.h"
#include "shard/shard_msg.h"
#include "shard/shard_stats.h"
#include "sync/ibf.h"

namespace seve {

/// One node of the zone-sharded serialization tier (DESIGN.md §12): a
/// SEVE Incomplete-World server that owns a static partition of the
/// object-id space (shard/shard_map.h) and serializes only actions whose
/// home avatar it owns.
///
/// Every submission runs one conflict walk (Algorithm 6). When the
/// resulting closure read set lies entirely in this shard — the common
/// case, answered by ObjectSet::IsSubsetOfShard's one-AND Bloom test —
/// the reply ships in one round trip exactly like the single-server
/// protocol. Otherwise the action escalates to a deterministic two-phase
/// cross-shard commit: prepares go to the owning peers in ascending
/// shard-id order, each peer immediately answers with a prepare-token
/// carrying its committed values for the requested reads (tokens are
/// served from committed state only — no locks, no waiting, hence no
/// deadlock), and when the last token arrives the owner folds the token
/// values into the head blind write of the closure reply, stamped at the
/// owner's committed frontier so every value enters the client's
/// last-writer order through one monotone stream.
///
/// All wire positions are global (epoch, shard, seq) stamps
/// (ShardStamp::Global); clients treat them as opaque ordered values, so
/// the unmodified SeveClient speaks to a shard exactly as it speaks to
/// the single server. Crash/rejoin fencing: a rejoin bumps the shard's
/// escalation epoch, aborts the crashed client's still-waiting
/// escalations (peers retire their tokens via ShardAbort), and
/// invalidates its unfinishable resolved escalations so the committed
/// frontier keeps advancing.
///
/// Ownership migration (DESIGN.md §14): StartMigration hands one
/// object's authoritative record — committed value, client registration,
/// interest profile — to a peer shard through a
/// MigrateOffer/MigrateAck/MigrateCommit exchange. The source drains the
/// object's uncommitted writers (the client is parked behind a
/// Rehome/RehomeAck barrier so no straggler submission can land after
/// the fence), then commits: the value leaves its state, the shared
/// ShardMap flips the owner, and the destination adopts the record as a
/// completed blind write stamped above the source's fence. Stamp
/// monotonicity across handoffs is kept by per-shard stamp segments
/// (FenceStampsAbove): local positions are translated to global stamps
/// through a piecewise offset so every stamp a client ever sees from its
/// chain of home shards is strictly increasing. A crash racing a handoff
/// is fenced like a plain rejoin: the source cancels not-yet-draining
/// offers (MigrateAbort), and a rejoin arriving at the destination
/// before adoption is parked and forwarded (MigrateRejoin) so the source
/// can invalidate the crashed client's unfinishable tail and commit.
///
/// Closure replies, completion/install, the send path and client
/// catch-up are the shared SerializerCore's, over this shard's partition
/// and in global stamps; this class adds the cross-shard commit,
/// migrations, Case-B parking of catch-up requests from clients whose
/// adoption is still in flight, and the owner-map ring rounds.
class SeveShardServer : public SerializerCore {
 public:
  SeveShardServer(NodeId node, EventLoop* loop, ShardId shard,
                  ShardMap* map, const WorldState& initial,
                  const InterestModel& interest, const CostModel& cost,
                  const SeveOptions& options);

  /// Registers a client homed on this shard (its avatar is owned here).
  /// `avatar` + `profile` feed the migration protocol and the
  /// escalated-push fan-out; callers that use neither may pass
  /// ObjectId() and a default profile.
  void RegisterClient(ClientId client, NodeId node, ObjectId avatar,
                      const InterestProfile& profile);
  /// Registers a peer shard server's node id (commit-protocol routing).
  void RegisterPeer(ShardId shard, NodeId node);

  /// Begins handing `object`'s authoritative record to shard `dest`.
  /// Returns false (and does nothing) when the transfer cannot start:
  /// not owned here, already in flight, or just adopted and still
  /// settling. Safe to call with a stale rebalancer plan.
  bool StartMigration(ObjectId object, ShardId dest);

  /// In-flight outbound handoffs (source side); 0 after a clean drain.
  size_t pending_migrations() const { return migrating_out_.size(); }
  /// Offered-but-not-committed inbound handoffs (destination side).
  size_t pending_adoptions() const { return expected_adoptions_.size(); }

  /// Arms the periodic shard-pair anti-entropy exchange: every
  /// options.shard_anti_entropy_period_us this shard reconciles its local
  /// ownership view against its ring successor (DESIGN.md §15). Runs
  /// until StopAntiEntropy(); call after RegisterPeer wiring is complete.
  void StartAntiEntropy();
  void StopAntiEntropy();

  /// Ownership-view entries that disagree with the authoritative shared
  /// map — the third-party staleness migration leaves behind, and what
  /// the owner-map anti-entropy repairs. Test/diagnostic accessor.
  int64_t stale_owner_entries() const;

  /// Peak uncommitted-queue depth since the last call (the rebalancer's
  /// load signal); resets the window to the current depth.
  int64_t TakeWindowQueuePeak() {
    const int64_t peak = window_queue_peak_;
    window_queue_peak_ = static_cast<int64_t>(queue_.uncommitted_size());
    return peak;
  }

  ShardId shard() const { return shard_; }
  /// In-flight escalations (owner side); 0 after a clean drain.
  size_t pending_escalations() const { return pending_.size(); }
  /// Unretired prepare-tokens (peer side); 0 after a clean drain.
  size_t outstanding_tokens() const { return outstanding_.size(); }

  const ShardCounters& counters() const { return counters_; }

 protected:
  void OnMessage(const Message& msg) override;
  /// Wire stamps are global (epoch, shard, seq) stamps.
  SeqNum WireStamp(SeqNum pos) const override { return GlobalStampOf(pos); }
  /// Live escalated entries need cross-shard values a partition snapshot
  /// cannot carry; their origins complete them through the normal path.
  bool WithholdFromTail(SeqNum pos) const override {
    return escalated_.count(pos) != 0;
  }
  /// Per install: the origin's profile refresh and escalated pushes.
  void OnInstalled(const ServerQueue::Entry& entry) override;
  /// The escalated-push flush and the migration drain check.
  void OnFrontierAdvanced() override;

 private:
  /// One outbound handoff on the source shard. The phases gate the
  /// commit: an offer must be acked (the destination has reserved the
  /// adoption), the client must be parked (RehomeAck — or a forwarded
  /// rejoin, which proves the client is already pointed at the
  /// destination), and the object's uncommitted writers must drain.
  struct MigrationOut {
    enum class Phase { kOffered, kAwaitRehomeAck, kDraining };
    ObjectId object;
    ShardId dest = 0;
    ClientId client;       // invalid when the object has no homed client
    NodeId client_node{0};
    uint64_t epoch = 0;
    Phase phase = Phase::kOffered;
  };

  /// One reserved inbound handoff on the destination shard: the offer
  /// was acked, the commit has not yet arrived. Blocks onward migration
  /// of the object and parks early rejoins of the rehomed client.
  struct ExpectedAdoption {
    ObjectId object;
    ShardId source = 0;
    ClientId client;
    bool rejoin_forwarded = false;
  };

  void HandleSubmit(ClientId from, ActionPtr action, const ObjectSet& resync);
  /// Forwards a completion quoting another shard's stamp to its owner;
  /// serves the rest through the core at the local position.
  void HandleCompletion(const CompletionBody& completion);
  void HandleRejoin(const RejoinBody& rejoin);
  /// Case B of the crash race: `client` is not registered here but has a
  /// reserved adoption. Its catch-up requests are parked like its rejoin
  /// (the answer must reflect the adopted record); the core NACKs
  /// requests from truly-unknown clients.
  bool AwaitingAdoption(ClientId client) const;
  void HandleSnapshotRequest(const SnapshotRequestBody& request, NodeId src);
  /// ---- Delta sync + anti-entropy (DESIGN.md §15) ---------------------
  /// Rejoin/AE handshakes from clients homed here run in the core over
  /// the partition state; kSyncModeOwnerMap rounds from peer shards run
  /// over the local ownership view (responder side of the ring exchange).
  void HandleSyncRequest(const SyncRequestBody& request, NodeId src);
  /// Initiator side of an owner-map round: the responder asked for an
  /// IBF of our ownership view at its estimated difference size.
  void HandleSyncIBFRequest(const SyncIBFRequestBody& request, NodeId src);
  void HandleSyncIBF(const SyncIBFBody& body, NodeId src);
  /// Owner-map repair list from the responder: fix our stale entries
  /// from the authoritative shared map.
  void HandleSyncDelta(const SyncDeltaBody& delta, NodeId src);
  void HandlePrepare(const ShardPrepareBody& prepare);
  void HandleToken(const ShardTokenBody& token);
  void HandleMigrateOffer(const MigrateOfferBody& offer);
  void HandleMigrateAck(const MigrateAckBody& ack);
  void HandleMigrateCommit(const MigrateCommitBody& commit);
  void HandleMigrateAbort(const MigrateAbortBody& abort);
  void HandleRehomeAck(const RehomeAckBody& ack);
  void HandleMigrateRejoin(const MigrateRejoinBody& rejoin);

  /// ---- Stamp segments (DESIGN.md §14) --------------------------------
  /// Local queue positions are translated to global stamps through a
  /// piecewise-constant offset: adopting a migrated object fences all
  /// future stamps above the source's commit stamp by opening a new
  /// segment at the current queue end. Segments are ascending in both
  /// from_pos and offset; positions below the first segment carry the
  /// implicit offset 0. Segments only ever open at the current end_pos,
  /// so the stamp of an already-appended position never changes.
  struct StampSegment {
    SeqNum from_pos;
    SeqNum offset;
  };

  /// Offset in force for local position `pos`.
  SeqNum StampOffsetAt(SeqNum pos) const;
  /// Global wire stamp of local position `pos`.
  SeqNum GlobalStampOf(SeqNum pos) const;
  /// Inverse of GlobalStampOf for stamps this shard issued.
  SeqNum LocalPosOfStamp(SeqNum stamp) const;
  /// Ensures every stamp issued for positions >= end_pos() exceeds
  /// `fence_stamp` (another shard's commit stamp) strictly.
  void FenceStampsAbove(SeqNum fence_stamp);

  /// ---- Migration (source side) ---------------------------------------
  /// Commits every kDraining handoff whose object has no uncommitted
  /// writer left. Called after every frontier advance.
  void RecheckMigrations();
  void CommitMigration(ObjectId object);
  /// Case A of the crash race: a direct rejoin from `client` cancels its
  /// not-yet-draining outbound handoffs (MigrateAbort to the
  /// destination releases the reserved adoption).
  void CancelMigrationsFor(ClientId client);
  /// Sweeps `client`'s still-waiting escalations (the owner-side rejoin
  /// fence): peers retire their tokens via ShardAbort, the local
  /// positions are invalidated.
  void AbortEscalationsFrom(ClientId client);

  /// Invalidates `client`'s uncompleted entries (only the escalated ones
  /// when `escalated_only`), then completes an invalidated head so the
  /// committed frontier keeps advancing; returns whether it did.
  bool InvalidateUncompleted(ClientId client, bool escalated_only);

  /// First-Bound style fan-out of a committed escalated closure: queues
  /// one (slot, blind write) per interested client (OnInstalled), then
  /// FlushEscalatedPushes coalesces per slot into DeliverActions batches.
  void QueueEscalatedPush(const ServerQueue::Entry& entry);
  void FlushEscalatedPushes();

  /// Resolves an escalation whose last token arrived: assembles the
  /// closure reply (token values folded into the head blind write),
  /// sends it to the origin, and retires the peers' tokens with commit
  /// messages.
  void FinishEscalation(SeqNum pos);

  /// A message for peer shard `peer`'s server.
  template <typename Body>
  Outgoing ToPeer(ShardId peer, std::shared_ptr<Body> body) const {
    return Outgoing::Of(peer_nodes_[static_cast<size_t>(peer)],
                        std::move(body));
  }

  /// A peer's ShardCommit or ShardAbort: charges the handling and drops
  /// the record of the token this shard issued; token_seq == kInvalidSeq
  /// matches any (aborts don't know which token the peer issued).
  void RetireToken(SeqNum stamp, ShardId home, SeqNum token_seq);

  /// ---- Owner-map anti-entropy (DESIGN.md §15) ------------------------
  /// The ownership view as reconciliation elements: key = object id,
  /// ver = believed owner. XOR-folded downstream, so FlatMap iteration
  /// order is unobservable.
  sync::Summary OwnerSummary() const;
  /// Repairs owner_view_ entries for `ids` from the authoritative shared
  /// map; returns how many actually changed (sync.owner_repairs).
  int64_t RepairOwners(const std::vector<ObjectId>& ids);
  /// One ring round: send our ownership strata to the successor shard.
  void OwnerAeTick();

  ShardId shard_;
  ShardMap* map_;  // shared, owned by the runner; written at commit
  std::vector<NodeId> peer_nodes_;  // indexed by ShardId
  ShardCommitTable pending_;        // owner-side in-flight escalations
  std::vector<OutstandingToken> outstanding_;  // peer-side issued tokens
  uint64_t epoch_ = 1;        // bumped per rejoin; fences escalations
  SeqNum next_token_seq_ = 0;
  ShardCounters counters_;
  // Local positions that went through escalation: their closures need
  // cross-shard values, so they cannot be replayed from a partition
  // snapshot (rejoin sweep + snapshot tail consult this).
  // Membership-only (never iterated), so bucket order is unobservable.
  // seve-lint: allow(det-unordered-container): membership test only
  std::unordered_set<SeqNum> escalated_;

  // ---- Migration state (DESIGN.md §14) -------------------------------
  std::vector<StampSegment> stamp_segments_;  // ascending from_pos
  std::vector<MigrationOut> migrating_out_;
  std::vector<ExpectedAdoption> expected_adoptions_;
  // Homed avatar -> client; maintained by RegisterClient, adoption and
  // migration commit. The rebalancer's movable set and the Rehome
  // barrier both key off it.
  FlatMap<ObjectId, ClientId> avatar_client_;
  // Peak uncommitted depth since the last rebalancer sample.
  int64_t window_queue_peak_ = 0;
  // ---- Owner-map anti-entropy (DESIGN.md §15) ------------------------
  // Local replica of the object -> owning-shard map, updated only by
  // migrations THIS shard participates in; a third-party handoff leaves
  // it stale until a ring anti-entropy round repairs it from the shared
  // authoritative map. What a real deployment would route by.
  FlatMap<ObjectId, ShardId> owner_view_;
  bool ae_running_ = false;
  // Escalated-push scratch, (slot, stamped blind write); filled by
  // installs inside one Complete burst, drained by FlushEscalatedPushes.
  std::vector<std::pair<ClientTable::Slot, OrderedAction>> push_scratch_;
};

}  // namespace seve

#endif  // SEVE_SHARD_SHARD_SERVER_H_
