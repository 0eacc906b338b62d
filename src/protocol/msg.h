#ifndef SEVE_PROTOCOL_MSG_H_
#define SEVE_PROTOCOL_MSG_H_

#include <cstdint>
#include <vector>

#include "action/action.h"
#include "net/message.h"
#include "store/object.h"
#include "sync/ibf.h"
#include "sync/strata.h"

namespace seve {

/// Message discriminators for the action-based protocols and baselines.
enum MsgKind : int {
  kSubmitAction = 1,   // client -> server: a freshly created action
  kDeliverActions = 2, // server -> client: ordered batch (Algorithms 2/5/6)
  kCompletion = 3,     // client -> server: stable result <a_i, u> (Alg. 4)
  kDropNotice = 4,     // server -> client: action dropped (Alg. 7)
  kCommitNotice = 5,   // server -> client: last installed pos (GC aid)

  // Crash/rejoin recovery (Section III-C):
  kRejoin = 6,           // client -> server: back from the dead
  kSnapshotRequest = 7,  // client -> server: send me a catch-up snapshot
  kSnapshotChunk = 8,    // server -> client: one slice of zeta_S + tail

  // Baseline architectures (100/101 were the central input/ack pair;
  // retired unsent, the numbers stay reserved):
  kObjectUpdate = 102,  // object-state push (Central/Broadcast/RING)

  // Ownership migration, client-facing leg (DESIGN.md §14). Numbered in
  // the shard migration block (320..) — see shard/shard_msg.h for the
  // shard-to-shard members — but defined here because SeveClient speaks
  // them: the protocol layer must not depend on shard headers.
  kRehome = 324,      // source shard -> client: switch your server to dest
  kRehomeAck = 325,   // client -> source shard: switched; source may drain
  kRehomeDone = 326,  // dest shard -> client: adopted; flush buffered actions

  // Set-reconciliation delta sync (DESIGN.md §15): O(diff) rejoin
  // catch-up and background anti-entropy. Defined here (not in a sync
  // header) for the same reason as the kRehome block: SeveClient speaks
  // them and the protocol layer must not grow new header dependencies.
  kSyncRequest = 330,     // initiator -> responder: strata estimator
  kSyncIBFRequest = 331,  // responder -> initiator: send an IBF this big
  kSyncIBF = 332,         // initiator -> responder: the sized filter
  kSyncDelta = 333,       // responder -> initiator: changed/missing objects
  kSyncNack = 334,        // responder -> initiator: unknown client, re-request
};

/// Which exchange a sync message belongs to; every kSync* body carries
/// one so the stateless responder knows how to finish the round.
enum SyncMode : uint8_t {
  kSyncModeRejoin = 0,    // client rejoin catch-up (replaces SnapshotRequest)
  kSyncModeAe = 1,        // client <-> home server anti-entropy tick
  kSyncModeOwnerMap = 2,  // shard <-> shard ownership-view anti-entropy
};

/// Client -> server: submit one action for serialization (Alg. 1 step 2 /
/// Alg. 4 step 2).
///
/// `resync` lets a client request authoritative values for objects it
/// cannot replay serially: the server folds them into the reply's
/// read-set closure (already-sent writers are re-delivered as stable
/// values). The default client relies on the audit-taint mechanism of
/// DESIGN.md §6 instead and sends an empty set; strict-replay clients
/// can populate it.
struct SubmitActionBody : MessageBody {
  ActionPtr action;
  ObjectSet resync;

  explicit SubmitActionBody(ActionPtr a, ObjectSet resync_set = {})
      : action(std::move(a)), resync(std::move(resync_set)) {}
  int kind() const override { return kSubmitAction; }
  int64_t WireSize() const {
    return 8 + action->WireSize() +
           static_cast<int64_t>(resync.size()) * 8;
  }
};

/// Server -> client: a pos-ordered batch of actions. In the basic
/// protocol this is the piggybacked reply (Alg. 2 step 4b); in the
/// Incomplete World / First Bound models it is the transitive-closure
/// reply or proactive push, whose head may be a blind write W(S, ζS(S)).
struct DeliverActionsBody : MessageBody {
  std::vector<OrderedAction> actions;

  int kind() const override { return kDeliverActions; }
  int64_t WireSize() const {
    int64_t size = 16;
    for (const OrderedAction& rec : actions) {
      size += 8 + rec.action->WireSize();
    }
    return size;
  }
};

/// Client -> server: completion message carrying the stable result of an
/// action (Alg. 4 step 5). Includes the written object values so the
/// server can install them into the authoritative state ζS (Alg. 5
/// step 5) without executing game logic itself.
struct CompletionBody : MessageBody {
  SeqNum pos = kInvalidSeq;
  ActionId action_id;
  ClientId from;
  ResultDigest digest = 0;
  /// The origin evaluated over inputs newer than serial order (rare; see
  /// DESIGN.md §6): the values still install, but the position is
  /// excluded from the serializability audit.
  bool out_of_order = false;
  std::vector<Object> written;

  int kind() const override { return kCompletion; }
  int64_t WireSize() const {
    int64_t size = 40;
    for (const Object& obj : written) size += obj.WireSize();
    return size;
  }
};

/// Server -> origin client: the action was dropped by the Information
/// Bound Model; the client must roll back its optimistic evaluation.
///
/// Carries a blind-write refresh of the dropped action's read set from
/// ζS. Without it a client can starve: it keeps declaring a stale
/// once-nearby avatar in its read sets, chaining to that avatar's distant
/// moves and getting dropped forever (the fairness hazard Section III-E
/// raises). Fresh values break the loop.
struct DropNoticeBody : MessageBody {
  ActionId action_id;
  SeqNum pos = kInvalidSeq;
  std::vector<Object> refresh;
  SeqNum refresh_pos = kInvalidSeq;  // commit frontier the values reflect

  int kind() const override { return kDropNotice; }
  int64_t WireSize() const {
    int64_t size = 32;
    for (const Object& obj : refresh) size += obj.WireSize();
    return size;
  }
};

/// Server -> client: everything up to `pos` is installed in ζS; the
/// client may garbage-collect bookkeeping for older actions (the memory
/// optimization of Section III-C).
struct CommitNoticeBody : MessageBody {
  SeqNum pos = kInvalidSeq;

  int kind() const override { return kCommitNotice; }
  int64_t WireSize() const { return 16; }
};

/// Client -> server: the client crashed and is rejoining. The server
/// resets the shared reliable-channel state (so pre-crash frames from
/// either side cannot resurface) and drops any queued pushes for the
/// client; the client follows up with a SnapshotRequest.
struct RejoinBody : MessageBody {
  ClientId client;

  int kind() const override { return kRejoin; }
  int64_t WireSize() const { return 16; }
};

/// Client -> server: request a full catch-up snapshot of ζS.
struct SnapshotRequestBody : MessageBody {
  ClientId client;

  int kind() const override { return kSnapshotRequest; }
  int64_t WireSize() const { return 16; }
};

/// Server -> client: one slice of the catch-up snapshot. The object
/// payload is ζS — semantically a batch of blind writes W(S, ζS(S)) at
/// the commit frontier `snapshot_pos` (Section III-C: state a rejoined
/// client may treat as authoritative). The final chunk additionally
/// carries the live tail: every still-uncommitted queue entry, with
/// completed entries substituted by blind writes of their stable results
/// exactly as ComputeClosure does, so replay from the snapshot converges
/// to the same digests as never-failed clients.
struct SnapshotChunkBody : MessageBody {
  /// Fixed per-chunk header of the declared size.
  static constexpr int64_t kHeaderBytes = 32;

  SeqNum snapshot_pos = kInvalidSeq;  // commit frontier the values reflect
  int64_t chunk = 0;                  // 0-based chunk index
  int64_t total = 1;                  // chunk count; last carries the tail
  std::vector<Object> objects;
  std::vector<OrderedAction> tail;

  int kind() const override { return kSnapshotChunk; }
  int64_t WireSize() const {
    int64_t size = kHeaderBytes;
    for (const Object& obj : objects) size += obj.WireSize();
    for (const OrderedAction& rec : tail) size += 8 + rec.action->WireSize();
    return size;
  }
};

/// Source shard -> client: your avatar is moving to the shard at
/// `dest_node`; point your submissions there and ack so the source can
/// drain. The client buffers fresh submissions until RehomeDone.
struct RehomeBody : MessageBody {
  ObjectId object;
  ClientId client;
  uint64_t dest_node = 0;  // NodeId value of the destination shard
  uint64_t epoch = 0;
  int kind() const override { return kRehome; }
  int64_t WireSize() const { return 36; }
};

/// Client -> source shard: the client switched servers; everything it
/// sent before this ack is already in the source's queue (FIFO link), so
/// the source's drain wait now covers every straggler.
struct RehomeAckBody : MessageBody {
  ClientId client;
  ObjectId object;
  uint64_t epoch = 0;
  int kind() const override { return kRehomeAck; }
  int64_t WireSize() const { return 28; }
};

/// Destination shard -> client: the adoption installed; the client flushes
/// its buffered submissions into the new shard's stream.
struct RehomeDoneBody : MessageBody {
  ClientId client;
  ObjectId object;
  int kind() const override { return kRehomeDone; }
  int64_t WireSize() const { return 20; }
};

/// Initiator -> responder: open a reconciliation round. Carries a strata
/// estimator over the initiator's (object id, content hash) summary so
/// the responder can size the IBF it asks for. `client` identifies the
/// initiator (the ClientId for rejoin/AE rounds, the shard id for
/// owner-map rounds).
struct SyncRequestBody : MessageBody {
  ClientId client;
  uint8_t mode = kSyncModeRejoin;
  sync::StrataEstimator strata;

  int kind() const override { return kSyncRequest; }
  int64_t WireSize() const { return 17 + strata.WireBytes(); }
};

/// Responder -> initiator: the estimated difference needs a filter of
/// `cells` cells; send your IBF.
struct SyncIBFRequestBody : MessageBody {
  ClientId client;
  uint8_t mode = kSyncModeRejoin;
  int64_t cells = 0;

  int kind() const override { return kSyncIBFRequest; }
  int64_t WireSize() const { return 25; }
};

/// Initiator -> responder: the sized filter over the initiator's summary.
struct SyncIBFBody : MessageBody {
  ClientId client;
  uint8_t mode = kSyncModeRejoin;
  sync::Ibf ibf;

  int kind() const override { return kSyncIBF; }
  int64_t WireSize() const { return 17 + ibf.WireBytes(); }
};

/// Responder -> initiator: the decoded delta. For rejoin rounds this is
/// the O(diff) replacement for the snapshot stream: `objects` are the
/// changed/missing objects at commit frontier `snapshot_pos`, `removed`
/// the ids the initiator must drop, and the final chunk carries the live
/// tail exactly like SnapshotChunk. AE rounds ship one chunk and no
/// tail; owner-map rounds list the divergent object ids in `removed`.
struct SyncDeltaBody : MessageBody {
  ClientId client;
  uint8_t mode = kSyncModeRejoin;
  SeqNum snapshot_pos = kInvalidSeq;
  int64_t chunk = 0;
  int64_t total = 1;
  std::vector<Object> objects;
  std::vector<ObjectId> removed;
  std::vector<OrderedAction> tail;

  int kind() const override { return kSyncDelta; }
  int64_t WireSize() const {
    int64_t size = 41 + static_cast<int64_t>(removed.size()) * 8;
    for (const Object& obj : objects) size += obj.WireSize();
    for (const OrderedAction& rec : tail) size += 8 + rec.action->WireSize();
    return size;
  }
};

/// Responder -> initiator: the responder does not know this client (a
/// catch-up request raced registration); the initiator should back off
/// and re-request instead of waiting forever.
struct SyncNackBody : MessageBody {
  ClientId client;
  uint8_t mode = kSyncModeRejoin;

  int kind() const override { return kSyncNack; }
  int64_t WireSize() const { return 17; }
};

}  // namespace seve

#endif  // SEVE_PROTOCOL_MSG_H_
