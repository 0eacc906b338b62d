#ifndef SEVE_PROTOCOL_SEVE_CLIENT_H_
#define SEVE_PROTOCOL_SEVE_CLIENT_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "action/action.h"
#include "common/metrics.h"
#include "net/node.h"
#include "protocol/client_cost.h"
#include "protocol/msg.h"
#include "protocol/options.h"
#include "protocol/pending_queue.h"
#include "store/world_state.h"

namespace seve {

/// Client side of the Incomplete World / First Bound / Information Bound
/// protocols (Algorithm 4).
///
/// Differences from the basic client:
///  * receives only the subset of actions that (transitively) affect it,
///    with server-synthesized blind writes W(S, ζS(S)) seeding unresolved
///    reads;
///  * sends a completion message <a_i, u> with the written values after
///    the stable evaluation of its own actions (Algorithm 4 step 5) — or
///    of every action when failure tolerance is on;
///  * handles drop notices from the Information Bound Model by rolling
///    back the optimistic evaluation of the dropped action;
///  * guards installs with per-object last-writer positions so a
///    transitively included older action cannot clobber newer state.
class SeveClient : public Node {
 public:
  /// Catch-up retries per rejoin (options.snapshot_retry_us), so an
  /// unregistered client cannot spin forever.
  static constexpr int kCatchupRetryLimit = 5;

  SeveClient(NodeId node, EventLoop* loop, ClientId client, NodeId server,
             WorldState initial, ActionCostFn cost_fn, Micros install_us,
             const SeveOptions& options);

  /// Algorithm 4 step 2: optimistic evaluation + submission.
  /// Silently ignored while the client is failed or still rejoining.
  void SubmitLocalAction(ActionPtr action);

  /// Crash: all deliveries and work are dropped until Rejoin().
  void Fail() { set_failed(true); }

  /// Recovery (Section III-C): discards all pre-crash replica state,
  /// resets the reliable-channel conversation with the server, and asks
  /// for a ζS snapshot. Protocol traffic is ignored until the final
  /// SnapshotChunk arrives, after which the client converges to the same
  /// digests as never-failed clients.
  ///
  /// With options.delta_sync the stable replica is kept and reconciled
  /// via the IBF handshake instead (DESIGN.md §15): the server ships only
  /// the symmetric difference plus the live tail, or falls back to the
  /// full stream when the filter fails to peel. Either way the client
  /// ends bit-identical to the full-snapshot path.
  void Rejoin();
  bool rejoining() const { return rejoining_; }
  /// True between Rehome and RehomeDone: submissions are buffered so the
  /// destination shard never sees this client before its adoption.
  bool rehoming() const { return rehoming_; }
  /// Current home server (changes when the sharded tier rehomes the
  /// client's avatar).
  NodeId server() const { return server_; }

  /// Arms the periodic background reconciliation exchange against the
  /// home server (options.anti_entropy_period_us; requires delta_sync).
  /// Runs until StopSync().
  void StartAntiEntropy();
  /// Disarms anti-entropy and the catch-up retry timer so the event loop
  /// can drain (runner teardown).
  void StopSync();

  ClientId client_id() const { return client_; }
  const WorldState& stable() const { return stable_; }
  const WorldState& optimistic() const { return optimistic_; }
  size_t pending_count() const { return pending_.size(); }
  SeqNum last_commit_notice() const { return last_commit_notice_; }
  int64_t drops_observed() const { return drops_observed_; }

  ProtocolStats& stats() { return stats_; }
  const ProtocolStats& stats() const { return stats_; }

  const DigestMap& eval_digests() const {
    return eval_digests_;
  }

 protected:
  void OnMessage(const Message& msg) override;

 private:
  void ApplyOrdered(const OrderedAction& rec);
  void HandleForeign(const OrderedAction& rec);
  void HandleOwnEcho(const OrderedAction& rec);
  void HandleDropNotice(const DropNoticeBody& notice);
  void HandleSnapshotChunk(const SnapshotChunkBody& chunk);
  void HandleRehome(const RehomeBody& rehome);
  void HandleRehomeDone(const RehomeDoneBody& done);
  /// Step 2 of the delta handshake: build an IBF of the stable replica at
  /// the server-requested size and send it back.
  void HandleSyncIBFRequest(const SyncIBFRequestBody& request);
  /// Applies a SyncDelta: the rejoin arm patches ζCS to the server's
  /// committed prefix and finishes exactly like the final SnapshotChunk;
  /// the anti-entropy arm upserts behind the last-writer guards.
  void HandleSyncDelta(const SyncDeltaBody& delta);
  /// Sends the catch-up request for the current mode (SyncRequest with
  /// delta_sync, SnapshotRequest without).
  void SendCatchupRequest();
  void SendSyncRequest(uint8_t mode);
  /// Re-requests catch-up if still rejoining after snapshot_retry_us
  /// (satellite fix: a dropped request or an abandoned transfer otherwise
  /// strands the client in rejoining_ forever).
  void ArmCatchupRetry();
  /// Shared tail-replay + optimistic re-seed for the final catch-up chunk
  /// (snapshot and delta paths).
  void FinishCatchup(const std::vector<OrderedAction>& tail);

  struct ApplyOutcome {
    ResultDigest digest = 0;
    /// True when some read input was newer than the action's serial
    /// position (an out-of-order transitive inclusion): the evaluation
    /// is transient-only — it must not be completed to the server nor
    /// audited against the serial execution.
    bool out_of_order = false;
    /// True when this position was already applied here (a resync
    /// re-delivery): the whole application is a no-op.
    bool duplicate = false;
  };
  /// Applies an action to ζCS with the last-writer guard. `force_eval`
  /// evaluates even over non-serial inputs (own echoes must always
  /// produce a result).
  ApplyOutcome GuardedApply(const OrderedAction& rec,
                            bool force_eval = false);
  void SendCompletion(const OrderedAction& rec, ResultDigest digest,
                      bool out_of_order = false);

  ClientId client_;
  NodeId server_;
  WorldState optimistic_;  // ζCO
  WorldState stable_;      // ζCS
  PendingQueue pending_;   // Q
  ActionCostFn cost_fn_;
  Micros install_us_;
  SeveOptions options_;
  ProtocolStats stats_;
  DigestMap eval_digests_;
  // Per-object position of the newest action applied to ζCS.
  FlatMap<ObjectId, SeqNum> last_writer_;
  // Positions of non-blind actions applied to ζCS; duplicate deliveries
  // must not double-apply (non-idempotent actions).
  // Membership-only (never iterated), so bucket order is unobservable.
  // seve-lint: allow(det-unordered-container): membership test only
  std::unordered_set<SeqNum> applied_;
  // Objects whose current ζCS value may not equal the serial value at
  // their last_writer position (produced by an out-of-order evaluation).
  // Reads of tainted objects taint the reader's writes; a clean in-order
  // evaluation or an authoritative blind write heals the object.
  ObjectSet tainted_;
  SeqNum last_commit_notice_ = kInvalidSeq;
  int64_t drops_observed_ = 0;
  /// True between Rejoin() and the final SnapshotChunk: protocol traffic
  /// is ignored (it predates the snapshot) and submissions are refused.
  bool rejoining_ = false;
  /// True while a delta (IBF) rejoin is in flight: the stable replica was
  /// kept for reconciliation. Any SnapshotChunk arriving in this state is
  /// the server's deterministic decode-failure fallback — wipe and run
  /// the full path.
  bool delta_rejoin_ = false;
  /// Retry bookkeeping: the incarnation invalidates timers armed for an
  /// earlier rejoin attempt; retries_used_ caps the re-requests so an
  /// unregistered client cannot spin forever.
  int64_t retry_incarnation_ = 0;
  int retries_used_ = 0;
  /// Anti-entropy tick armed (StartAntiEntropy .. StopSync).
  bool ae_running_ = false;
  /// True between Rehome and RehomeDone (DESIGN.md §14): the avatar's
  /// record is in flight between shards. Fresh submissions are
  /// evaluated and queued locally but their bodies are parked in
  /// rehome_buffer_ — the destination appends every submission to its
  /// queue before checking registration, so a pre-adoption arrival
  /// would stall its frontier forever.
  bool rehoming_ = false;
  std::vector<std::shared_ptr<SubmitActionBody>> rehome_buffer_;
};

}  // namespace seve

#endif  // SEVE_PROTOCOL_SEVE_CLIENT_H_
