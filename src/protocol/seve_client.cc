#include "protocol/seve_client.h"

#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "net/channel.h"
#include "sync/reconcile.h"

namespace seve {

SeveClient::SeveClient(NodeId node, EventLoop* loop, ClientId client,
                       NodeId server, WorldState initial,
                       ActionCostFn cost_fn, Micros install_us,
                       const SeveOptions& options)
    : Node(node, loop),
      client_(client),
      server_(server),
      optimistic_(initial),
      stable_(std::move(initial)),
      cost_fn_(std::move(cost_fn)),
      install_us_(install_us),
      options_(options) {}

void SeveClient::SubmitLocalAction(ActionPtr action) {
  if (failed() || rejoining_) return;
  assert(action->ReadSet().Covers(action->WriteSet()) &&
         "protocol invariant RS(a) ⊇ WS(a) violated");
  const Micros cost = cost_fn_(*action, optimistic_);
  const VirtualTime submitted_at = loop()->now();
  SubmitWork(cost, [this, action = std::move(action), submitted_at]() {
    const ResultDigest digest = EvaluateAction(*action, &optimistic_);
    pending_.Push(action, digest, submitted_at);
    ++stats_.actions_submitted;
    auto body = std::make_shared<SubmitActionBody>(action);
    if (rehoming_) {
      // Mid-handoff (DESIGN.md §14): park the body until RehomeDone.
      // The optimistic evaluation and the pending entry above proceed
      // normally — only the wire send waits for the new home.
      // seve-lint: allow(hot-vector-realloc): rehome window only, cold
      rehome_buffer_.push_back(std::move(body));
    } else {
      Send(server_, body->WireSize(), body);
    }
  });
}

void SeveClient::Rejoin() {
  set_failed(false);
  rejoining_ = true;
  delta_rejoin_ = options_.delta_sync;
  // Everything replicated before the crash is untrusted: the snapshot
  // rebuilds ζCS from scratch and ζCO is re-seeded from it afterwards.
  // The delta path keeps ζCS — it is exactly what the IBF exchange
  // reconciles against the server's committed prefix — but clears every
  // piece of bookkeeping derived from the dead incarnation.
  if (!delta_rejoin_) stable_ = WorldState{};
  optimistic_ = WorldState{};
  pending_ = PendingQueue{};
  last_writer_.Clear();
  applied_.clear();
  tainted_ = ObjectSet{};
  // A crash mid-rehome: the buffered bodies died with the incarnation
  // (their pending entries were just reset too). server_ already points
  // at whichever shard the client last switched to — the rejoin lands
  // there, and the shards sort out the race (DESIGN.md §14 cases A/B).
  rehoming_ = false;
  rehome_buffer_.clear();
  ++stats_.rejoins;
  // Fresh channel incarnation first, so the Rejoin/catch-up-request pair
  // (and everything after) rides a stream the server can tell apart from
  // pre-crash leftovers.
  if (ReliableChannel* channel = reliable_channel()) {
    channel->ResetPeer(server_);
  }
  auto rejoin = std::make_shared<RejoinBody>();
  rejoin->client = client_;
  Send(server_, rejoin->WireSize(), rejoin);
  SendCatchupRequest();
  ++retry_incarnation_;
  retries_used_ = 0;
  ArmCatchupRetry();
}

void SeveClient::SendCatchupRequest() {
  if (delta_rejoin_) {
    SendSyncRequest(kSyncModeRejoin);
  } else {
    auto request = std::make_shared<SnapshotRequestBody>();
    request->client = client_;
    Send(server_, request->WireSize(), request);
  }
}

void SeveClient::SendSyncRequest(uint8_t mode) {
  auto request = std::make_shared<SyncRequestBody>();
  request->client = client_;
  request->mode = mode;
  request->strata = sync::BuildStrata(stable_);
  Send(server_, request->WireSize(), request);
}

void SeveClient::ArmCatchupRetry() {
  if (options_.snapshot_retry_us <= 0) return;
  if (retries_used_ >= kCatchupRetryLimit) return;
  const int64_t incarnation = retry_incarnation_;
  loop()->After(options_.snapshot_retry_us, [this, incarnation]() {
    // Stale arms die silently: the rejoin completed (incarnation moved
    // on), the node re-crashed, or the runner stopped sync timers.
    if (incarnation != retry_incarnation_ || !rejoining_ || failed()) {
      return;
    }
    ++retries_used_;
    ++stats_.sync.snapshot_retries;
    SendCatchupRequest();
    ArmCatchupRetry();
  });
}

void SeveClient::StartAntiEntropy() {
  if (!options_.delta_sync || options_.anti_entropy_period_us <= 0) return;
  ae_running_ = true;
  loop()->After(options_.anti_entropy_period_us, [this]() {
    if (!ae_running_) return;
    // Skip rounds while this replica is not a meaningful reconciliation
    // peer (crashed, mid-rejoin, or mid-rehome); the cadence continues.
    if (!failed() && !rejoining_ && !rehoming_) {
      SendSyncRequest(kSyncModeAe);
    }
    ae_running_ = false;
    StartAntiEntropy();
  });
}

void SeveClient::StopSync() {
  ae_running_ = false;
  ++retry_incarnation_;  // kills any armed catch-up retry
}

void SeveClient::OnMessage(const Message& msg) {
  const int kind = msg.body->kind();
  if (rejoining_ && kind != kSnapshotChunk && kind != kSyncIBFRequest &&
      kind != kSyncDelta && kind != kSyncNack) {
    // Pre-snapshot protocol traffic: superseded by the catch-up.
    return;
  }
  switch (kind) {
    case kDeliverActions: {
      const auto& deliver =
          static_cast<const DeliverActionsBody&>(*msg.body);
      stats_.closure_size.Add(
          static_cast<int64_t>(deliver.actions.size()));
      for (const OrderedAction& rec : deliver.actions) {
        const Micros cost = rec.action->IsBlindWrite()
                                ? install_us_
                                : cost_fn_(*rec.action, stable_);
        SubmitWork(cost, [this, rec]() { ApplyOrdered(rec); });
      }
      break;
    }
    case kDropNotice:
      HandleDropNotice(static_cast<const DropNoticeBody&>(*msg.body));
      break;
    case kCommitNotice: {
      const auto& notice = static_cast<const CommitNoticeBody&>(*msg.body);
      last_commit_notice_ = notice.pos;
      break;
    }
    case kSnapshotChunk:
      HandleSnapshotChunk(static_cast<const SnapshotChunkBody&>(*msg.body));
      break;
    case kSyncIBFRequest:
      HandleSyncIBFRequest(
          static_cast<const SyncIBFRequestBody&>(*msg.body));
      break;
    case kSyncDelta:
      HandleSyncDelta(static_cast<const SyncDeltaBody&>(*msg.body));
      break;
    case kSyncNack:
      // The server does not know this client (yet). Stay in rejoining_;
      // the retry timer re-requests until registration wins the race or
      // the retry cap gives up deterministically.
      break;
    case kRehome:
      // Note the rejoining_ gate above: a client mid-rejoin drops the
      // Rehome, its direct Rejoin reaches the source, and the source
      // cancels the handoff (case A) — consistent on both ends.
      HandleRehome(static_cast<const RehomeBody&>(*msg.body));
      break;
    case kRehomeDone:
      HandleRehomeDone(static_cast<const RehomeDoneBody&>(*msg.body));
      break;
    default:
      break;
  }
}

void SeveClient::HandleRehome(const RehomeBody& rehome) {
  if (rehome.client != client_) return;
  // Ack to the OLD server first: the client->source link is FIFO, so
  // every submission sent before this ack is already ahead of it in the
  // source's queue — the ack bounds the source's drain wait exactly.
  auto ack = std::make_shared<RehomeAckBody>();
  ack->client = client_;
  ack->object = rehome.object;
  ack->epoch = rehome.epoch;
  Send(server_, ack->WireSize(), ack);
  server_ = NodeId(rehome.dest_node);
  rehoming_ = true;
}

void SeveClient::HandleRehomeDone(const RehomeDoneBody& done) {
  if (done.client != client_ || !rehoming_) return;
  // The destination adopted the record; buffered submissions flow into
  // its stream, in submission order, behind the adoption entry.
  rehoming_ = false;
  for (const std::shared_ptr<SubmitActionBody>& body : rehome_buffer_) {
    Send(server_, body->WireSize(), body);
  }
  rehome_buffer_.clear();
}

void SeveClient::HandleSnapshotChunk(const SnapshotChunkBody& chunk) {
  if (!rejoining_) return;  // duplicate catch-up from a slow path
  if (delta_rejoin_) {
    // Deterministic decode-failure fallback (DESIGN.md §15): the server
    // answered the IBF with the full stream, so the kept replica buys
    // nothing — wipe it and run the classic path from here.
    stable_ = WorldState{};
    last_writer_.Clear();
    delta_rejoin_ = false;
  }
  // The snapshot is a batch of blind writes W(S, ζS(S)) at the commit
  // frontier: install directly and stamp the last-writer guards so tail
  // actions (all at higher positions) apply on top.
  for (const Object& obj : chunk.objects) {
    stable_.Upsert(obj);
    last_writer_[obj.id()] = chunk.snapshot_pos;
  }
  if (chunk.chunk + 1 != chunk.total) return;
  FinishCatchup(chunk.tail);
}

void SeveClient::FinishCatchup(const std::vector<OrderedAction>& tail) {
  // Final chunk: the replica is authoritative as of snapshot_pos. Replay
  // the live tail in order on the CPU, then re-seed the optimistic view.
  rejoining_ = false;
  delta_rejoin_ = false;
  ++retry_incarnation_;  // disarms the catch-up retry
  for (const OrderedAction& rec : tail) {
    const Micros cost = rec.action->IsBlindWrite()
                            ? install_us_
                            : cost_fn_(*rec.action, stable_);
    SubmitWork(cost, [this, rec]() { ApplyOrdered(rec); });
  }
  // CPU FIFO ordering puts this after the tail replay but before any
  // post-snapshot deliveries that arrive later.
  SubmitWork(install_us_, [this]() { optimistic_ = stable_; });
}

void SeveClient::HandleSyncIBFRequest(const SyncIBFRequestBody& request) {
  if (request.client != client_) return;
  // Rejoin rounds only make sense mid-rejoin, anti-entropy rounds only
  // outside one; a stale reply from the other state is dead traffic.
  if (request.mode == kSyncModeRejoin && !delta_rejoin_) return;
  if (request.mode == kSyncModeAe && rejoining_) return;
  auto reply = std::make_shared<SyncIBFBody>();
  reply->client = client_;
  reply->mode = request.mode;
  reply->ibf = sync::BuildIbf(stable_, request.cells);
  Send(server_, reply->WireSize(), reply);
}

void SeveClient::HandleSyncDelta(const SyncDeltaBody& delta) {
  if (delta.client != client_) return;
  if (delta.mode == kSyncModeRejoin) {
    if (!rejoining_ || !delta_rejoin_) return;
    // Patch ζCS to the server's committed prefix: shipped objects carry
    // the snapshot position as their last writer (exactly like snapshot
    // blind writes); removed ids vanish. Objects the diff did not touch
    // already equal ζS, so their absent guard (0) is equivalent to the
    // full path's snapshot_pos stamp — nothing older than snapshot_pos
    // can arrive on the fresh channel incarnation.
    for (const Object& obj : delta.objects) {
      stable_.Upsert(obj);
      last_writer_[obj.id()] = delta.snapshot_pos;
    }
    for (ObjectId id : delta.removed) {
      (void)stable_.Remove(id);
      last_writer_.Erase(id);
    }
    if (delta.chunk + 1 != delta.total) return;
    FinishCatchup(delta.tail);
    return;
  }
  // Anti-entropy repair: authoritative committed values, applied behind
  // the last-writer guards so they never roll back newer deliveries.
  if (rejoining_ || delta.mode != kSyncModeAe) return;
  ObjectSet touched;
  for (const Object& obj : delta.objects) {
    SeqNum& last = last_writer_[obj.id()];
    if (delta.snapshot_pos < last) continue;
    const Object* cur = stable_.Find(obj.id());
    if (cur == nullptr || cur->Hash() != obj.Hash()) {
      ++stats_.sync.ae_objects_repaired;
    }
    stable_.Upsert(obj);
    last = delta.snapshot_pos;
    touched.Insert(obj.id());
  }
  for (ObjectId id : delta.removed) {
    SeqNum& last = last_writer_[id];
    if (delta.snapshot_pos < last) continue;
    if (stable_.Remove(id).ok()) ++stats_.sync.ae_objects_repaired;
    last = delta.snapshot_pos;
    touched.Insert(id);
  }
  if (touched.empty()) return;
  // Refreshes flow into ζCO except where a pending optimistic write is
  // still awaiting its echo (same rule as the drop-notice refresh).
  touched.SubtractWith(pending_.write_set());
  optimistic_.CopyObjectsFrom(stable_, touched);
}

void SeveClient::ApplyOrdered(const OrderedAction& rec) {
  const bool own = rec.action->origin() == client_ &&
                   pending_.ContainsId(rec.action->id());
  if (own) {
    HandleOwnEcho(rec);
  } else {
    HandleForeign(rec);
  }
}

SeveClient::ApplyOutcome SeveClient::GuardedApply(const OrderedAction& rec,
                                                  bool force_eval) {
  ApplyOutcome outcome;
  const bool blind = rec.action->IsBlindWrite();
  if (!blind && applied_.count(rec.pos) != 0) {
    outcome.duplicate = true;
    return outcome;
  }
  if (!blind) {
    // Out-of-order detection: a read input already written by a newer
    // (higher-pos) action means this evaluation cannot reproduce the
    // serial history at pos. The action is still applied — the result is
    // at worst transiently ahead of serial order and authoritative blind
    // writes / substituted stable values overwrite it as they arrive —
    // but it is excluded from completions and the serializability audit.
    // (The server substitutes completed chain members with their stable
    // values, so this path is confined to the sub-RTT window before a
    // chain member's completion arrives.)
    for (ObjectId id : rec.action->ReadSet()) {
      const SeqNum* last = last_writer_.Find(id);
      if ((last != nullptr && *last > rec.pos) || tainted_.Contains(id)) {
        outcome.out_of_order = true;
        break;
      }
    }
  }
  (void)force_eval;

  // Objects already written by a newer action must not be rolled back by
  // a transitively included older action or a blind write carrying an
  // older snapshot.
  std::vector<Object> protected_values;
  std::vector<ObjectId> protected_missing;
  protected_values.reserve(rec.action->WriteSet().size());
  protected_missing.reserve(rec.action->WriteSet().size());
  for (ObjectId id : rec.action->WriteSet()) {
    const SeqNum* newest = last_writer_.Find(id);
    if (newest != nullptr && *newest > rec.pos) {
      const Object* obj = stable_.Find(id);
      if (obj != nullptr) {
        protected_values.push_back(*obj);
      } else {
        protected_missing.push_back(id);
      }
    }
  }

  outcome.digest = EvaluateAction(*rec.action, &stable_);
  if (!blind) applied_.insert(rec.pos);

  for (const Object& obj : protected_values) stable_.Upsert(obj);
  for (ObjectId id : protected_missing) (void)stable_.Remove(id);
  ObjectSet healed;
  for (ObjectId id : rec.action->WriteSet()) {
    SeqNum& last = last_writer_[id];
    const bool installed = rec.pos >= last;
    if (rec.pos > last) last = rec.pos;
    if (!installed) continue;  // guard kept the newer (clean) value
    if (!blind && outcome.out_of_order) {
      // The installed value came from non-serial inputs: taint it so
      // downstream readers are excluded from the audit too.
      tainted_.Insert(id);
    } else {
      // Clean serial evaluation or authoritative values: heal.
      healed.Insert(id);
    }
  }
  if (!healed.empty()) tainted_.SubtractWith(healed);
  return outcome;
}

void SeveClient::HandleForeign(const OrderedAction& rec) {
  const ApplyOutcome outcome = GuardedApply(rec);
  if (outcome.duplicate) return;
  if (!rec.action->IsBlindWrite()) {
    ++stats_.actions_evaluated;
    if (outcome.out_of_order) {
      // Transient-only evaluation: its result is neither authoritative
      // nor serializable — never complete it, never audit it.
      ++stats_.out_of_order_evals;
    } else {
      eval_digests_[rec.pos] = outcome.digest;
      if (options_.all_client_completions) {
        SendCompletion(rec, outcome.digest, /*out_of_order=*/false);
      }
    }
  }
  // Propagate to ζCO for objects not awaiting server confirmation.
  const ObjectSet propagate =
      ObjectSet::Difference(rec.action->WriteSet(), pending_.write_set());
  optimistic_.CopyObjectsFrom(stable_, propagate);
}

void SeveClient::HandleOwnEcho(const OrderedAction& rec) {
  // Locate the optimistic entry; with in-order delivery from the server
  // this is the queue head, but drops may have removed earlier entries.
  const PendingQueue::Entry entry = pending_.front().action->id() ==
                                            rec.action->id()
                                        ? pending_.front()
                                        : PendingQueue::Entry{};
  const bool at_head = entry.action != nullptr;

  // Own echoes must always produce a completion; with the resync blind
  // write preceding them in the batch their inputs are clean in all but
  // pathological cases (counted below).
  const ApplyOutcome outcome = GuardedApply(rec, /*force_eval=*/true);
  const ResultDigest stable_digest = outcome.digest;
  if (outcome.out_of_order) {
    // Evaluated over reordered inputs: commit for liveness, but flag the
    // completion so the position is excluded from the audit, and do not
    // contribute our digest either.
    ++stats_.out_of_order_evals;
  } else {
    eval_digests_[rec.pos] = stable_digest;
  }
  ++stats_.actions_evaluated;
  SendCompletion(rec, stable_digest, outcome.out_of_order);

  if (at_head) {
    stats_.response_time_us.Add(loop()->now() - entry.submitted_at);
    pending_.PopFront();
    if (stable_digest != entry.digest) {
      ++stats_.actions_reconciled;
      optimistic_.CopyObjectsFrom(stable_, rec.action->WriteSet());
      pending_.Reconcile(&optimistic_, stable_);
    }
  } else {
    // Out-of-order echo (only possible after drops reordered the queue):
    // drop the entry wherever it is and reconcile conservatively.
    (void)pending_.RemoveById(rec.action->id());
    ++stats_.actions_reconciled;
    optimistic_.CopyObjectsFrom(stable_, rec.action->WriteSet());
    pending_.Reconcile(&optimistic_, stable_);
  }
}

void SeveClient::HandleDropNotice(const DropNoticeBody& notice) {
  ++drops_observed_;
  // Install the read-set refresh first (last-writer guarded): the next
  // locally generated action must declare its reads against authoritative
  // positions, or a stale once-nearby neighbour keeps re-chaining this
  // client into drops forever.
  for (const Object& obj : notice.refresh) {
    SeqNum& last = last_writer_[obj.id()];
    if (notice.refresh_pos >= last) {
      stable_.Upsert(obj);
      last = notice.refresh_pos;
    }
  }
  if (!pending_.ContainsId(notice.action_id)) {
    // Nothing to roll back, but the refreshed values still belong in the
    // optimistic view for objects with no pending writes.
    ObjectSet refreshed;
    for (const Object& obj : notice.refresh) refreshed.Insert(obj.id());
    refreshed.SubtractWith(pending_.write_set());
    optimistic_.CopyObjectsFrom(stable_, refreshed);
    return;
  }
  ObjectSet refreshed;
  for (const Object& obj : notice.refresh) refreshed.Insert(obj.id());
  SubmitWork(install_us_, [this, id = notice.action_id,
                           refreshed = std::move(refreshed)]() {
    if (!pending_.ContainsId(id)) return;
    // Capture the victim's write set before removal: its optimistic
    // effects must be rolled back even if no surviving entry writes the
    // same objects.
    ObjectSet dropped_ws;
    for (const PendingQueue::Entry& e : pending_.entries()) {
      if (e.action->id() == id) {
        dropped_ws = e.action->WriteSet();
        break;
      }
    }
    (void)pending_.RemoveById(id);
    optimistic_.CopyObjectsFrom(stable_,
                                ObjectSet::Union(dropped_ws, refreshed));
    // Replay the surviving queue over the refreshed snapshot (Alg. 3).
    pending_.Reconcile(&optimistic_, stable_);
  });
}

void SeveClient::SendCompletion(const OrderedAction& rec,
                                ResultDigest digest, bool out_of_order) {
  auto body = std::make_shared<CompletionBody>();
  body->pos = rec.pos;
  body->action_id = rec.action->id();
  body->from = client_;
  body->digest = digest;
  body->out_of_order = out_of_order;
  if (digest != kConflictDigest) {
    body->written = stable_.Extract(rec.action->WriteSet());
  }
  Send(server_, body->WireSize(), body);
}

}  // namespace seve
