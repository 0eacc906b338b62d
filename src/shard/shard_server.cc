#include "shard/shard_server.h"

#include <algorithm>
#include <utility>

#include "shard/shard_router.h"
#include "sync/reconcile.h"

namespace seve {
namespace {

// This shard's partition of the initial world.
WorldState PartitionOf(const ShardMap& map, ShardId shard,
                       const WorldState& initial) {
  WorldState part;
  for (const ObjectId id : map.objects_of(shard)) {
    const Object* obj = initial.Find(id);
    if (obj != nullptr) part.Upsert(*obj);
  }
  return part;
}

}  // namespace

SeveShardServer::SeveShardServer(NodeId node, EventLoop* loop, ShardId shard,
                                 ShardMap* map, const WorldState& initial,
                                 const InterestModel& interest,
                                 const CostModel& cost,
                                 const SeveOptions& options)
    : SerializerCore(
          node, loop, PartitionOf(*map, shard, initial), cost, interest,
          options,
          // Blind ids carry the shard in bits 48..: streams never collide
          // across shards, and they never reach any compared digest
          // (blind writes are bookkeeping, not evaluated actions).
          (ActionId::ValueType{1} << 62) +
              (static_cast<ActionId::ValueType>(shard) << 48)),
      shard_(shard),
      map_(map),
      peer_nodes_(static_cast<size_t>(map->shard_count())) {
  // Full ownership view, seeded from the initial partition (before any
  // migration). Kept fresh only for handoffs this shard participates in;
  // the owner-map anti-entropy repairs the rest.
  const ShardId shards = map->shard_count();
  for (ShardId s = 0; s < shards; ++s) {
    for (const ObjectId id : map->objects_of(s)) owner_view_[id] = s;
  }
  push_scratch_.reserve(64);
}

void SeveShardServer::RegisterClient(ClientId client, NodeId node,
                                     ObjectId avatar,
                                     const InterestProfile& profile) {
  (void)clients_.Register(client, node, profile, loop()->now());
  if (avatar.valid()) avatar_client_[avatar] = client;
}

void SeveShardServer::RegisterPeer(ShardId shard, NodeId node) {
  peer_nodes_[static_cast<size_t>(shard)] = node;
}

void SeveShardServer::OnMessage(const Message& msg) {
  switch (msg.body->kind()) {
    case kSubmitAction: {
      const auto& submit = static_cast<const SubmitActionBody&>(*msg.body);
      HandleSubmit(submit.action->origin(), submit.action, submit.resync);
      break;
    }
    case kCompletion:
      HandleCompletion(static_cast<const CompletionBody&>(*msg.body));
      break;
    case kRejoin:
      HandleRejoin(static_cast<const RejoinBody&>(*msg.body));
      break;
    case kSnapshotRequest:
      HandleSnapshotRequest(
          static_cast<const SnapshotRequestBody&>(*msg.body), msg.src);
      break;
    case kSyncRequest:
      HandleSyncRequest(static_cast<const SyncRequestBody&>(*msg.body),
                        msg.src);
      break;
    case kSyncIBFRequest:
      HandleSyncIBFRequest(
          static_cast<const SyncIBFRequestBody&>(*msg.body), msg.src);
      break;
    case kSyncIBF:
      HandleSyncIBF(static_cast<const SyncIBFBody&>(*msg.body), msg.src);
      break;
    case kSyncDelta:
      HandleSyncDelta(static_cast<const SyncDeltaBody&>(*msg.body),
                      msg.src);
      break;
    case kShardPrepare:
      HandlePrepare(static_cast<const ShardPrepareBody&>(*msg.body));
      break;
    case kShardToken:
      HandleToken(static_cast<const ShardTokenBody&>(*msg.body));
      break;
    case kShardCommit: {
      const auto& commit = static_cast<const ShardCommitBody&>(*msg.body);
      RetireToken(commit.stamp, commit.home_shard, commit.token_seq);
      break;
    }
    case kShardAbort: {
      const auto& abort = static_cast<const ShardAbortBody&>(*msg.body);
      RetireToken(abort.stamp, abort.home_shard, kInvalidSeq);
      break;
    }
    case kMigrateOffer:
      HandleMigrateOffer(static_cast<const MigrateOfferBody&>(*msg.body));
      break;
    case kMigrateAck:
      HandleMigrateAck(static_cast<const MigrateAckBody&>(*msg.body));
      break;
    case kMigrateCommit:
      HandleMigrateCommit(static_cast<const MigrateCommitBody&>(*msg.body));
      break;
    case kMigrateAbort:
      HandleMigrateAbort(static_cast<const MigrateAbortBody&>(*msg.body));
      break;
    case kRehomeAck:
      HandleRehomeAck(static_cast<const RehomeAckBody&>(*msg.body));
      break;
    case kMigrateRejoin:
      HandleMigrateRejoin(static_cast<const MigrateRejoinBody&>(*msg.body));
      break;
    default:
      break;
  }
}

// ---- Stamp segments (DESIGN.md §14) ---------------------------------------

SeqNum SeveShardServer::StampOffsetAt(SeqNum pos) const {
  // Last segment with from_pos <= pos; segments are ascending, binary
  // search keeps this O(log adoptions) on the stamp hot path.
  auto it = std::upper_bound(
      stamp_segments_.begin(), stamp_segments_.end(), pos,
      [](SeqNum p, const StampSegment& seg) { return p < seg.from_pos; });
  return it == stamp_segments_.begin() ? 0 : (it - 1)->offset;
}

SeqNum SeveShardServer::GlobalStampOf(SeqNum pos) const {
  return ShardStamp::Global(pos + StampOffsetAt(pos), shard_);
}

SeqNum SeveShardServer::LocalPosOfStamp(SeqNum stamp) const {
  const SeqNum shifted = ShardStamp::LocalPos(stamp);
  // Newest-first: a stamp issued under segment k decodes only there —
  // for any newer segment j, candidate = shifted - offset_j < from_j
  // (the entry was appended before segment j opened, and segments open
  // at the then-current end_pos). In steady state the first probe hits.
  for (auto it = stamp_segments_.rbegin(); it != stamp_segments_.rend();
       ++it) {
    const SeqNum candidate = shifted - it->offset;
    if (candidate >= it->from_pos) return candidate;
  }
  return shifted;
}

void SeveShardServer::FenceStampsAbove(SeqNum fence_stamp) {
  // The next position to be stamped (end_pos and beyond) must map
  // strictly above the fence: the shifted part must exceed the fence's,
  // which dominates regardless of the shard bits.
  const SeqNum min_shifted = ShardStamp::LocalPos(fence_stamp) + 1;
  const SeqNum at = queue_.end_pos();
  const SeqNum current = StampOffsetAt(at);
  const SeqNum needed = min_shifted - at;
  if (needed <= current) return;
  if (!stamp_segments_.empty() && stamp_segments_.back().from_pos == at) {
    // Two fences between appends collapse into one segment.
    stamp_segments_.back().offset = needed;
  } else {
    // Rare (once per adoption), not a routed hot path.
    stamp_segments_.push_back(StampSegment{at, needed});
  }
}

void SeveShardServer::HandleSubmit(ClientId from, ActionPtr action,
                                   const ObjectSet& resync) {
  // Unknown clients are rejected BEFORE the append: an entry that can
  // never complete would stall the committed frontier forever. (The
  // rehome barrier keeps mid-migration clients out of this path; this
  // is the backstop.)
  const ClientTable::Slot client_slot = clients_.SlotOf(from);
  if (client_slot == ClientTable::kNoSlot) return;
  const SeqNum pos = queue_.Append(action, loop()->now());
  ++stats_.actions_submitted;
  ++counters_.submits;
  const int64_t depth = static_cast<int64_t>(queue_.uncommitted_size());
  counters_.queue_depth_peak = std::max(counters_.queue_depth_peak, depth);
  window_queue_peak_ = std::max(window_queue_peak_, depth);
  Micros cpu = cost_.serialize_us;

  // One conflict walk decides the routing AND captures the closure: the
  // final read set S and the included positions feed the reply assembly
  // directly (fast path) or are frozen in the escalation record, so the
  // fast/escalated decision costs no second walk. Crucially, sent(a) is
  // NOT marked here — it is marked at assembly time, so a later action
  // from the same client still walks into an unresolved escalated
  // predecessor, escalates with it, and the FIFO token order keeps the
  // client's replies in submission order.
  const ObjectSet closure = WalkClosure(from, pos, resync, &cpu);
  const NodeId dst = clients_.node(client_slot);

  if (closure.IsSubsetOfShard(*map_, shard_)) {
    // Fast path: the whole closure lives here; reply in one round trip
    // exactly like the single-server Incomplete World Model.
    ++counters_.fast_path;
    std::vector<OrderedAction> batch;
    AssembleClosure(from, pos, closure, &closure_included_, {}, &cpu,
                    &batch);
    SendAfter(DeliverActions(dst, std::move(batch)), cpu);
    return;
  }

  // Escalate: freeze the walk results and request one prepare-token per
  // peer shard the closure touches, in ascending shard-id order.
  ++counters_.escalated;
  escalated_.insert(pos);
  PendingEscalation& esc = pending_.Create(pos);
  esc.origin = from;
  esc.origin_node = dst;
  esc.epoch = epoch_;
  esc.included = closure_included_;
  esc.closure = closure;

  const ShardSpan span = SpanOf(closure, *map_);
  std::vector<Outgoing> prepares;
  for (const ShardId peer : span.shards) {  // ascending: ordered tokens
    if (peer == shard_) continue;
    esc.waiting.push_back(peer);
    auto body = std::make_shared<ShardPrepareBody>();
    body->stamp = GlobalStampOf(pos);
    body->home_shard = static_cast<int32_t>(shard_);
    body->epoch = epoch_;
    body->reads = OwnedSubset(closure, *map_, peer);
    prepares.push_back(ToPeer(peer, std::move(body)));
  }
  cpu += cost_.serialize_us * static_cast<Micros>(prepares.size());
  SendAllAfter(std::move(prepares), cpu);
  // A span that collapsed to this shard alone (a stale Bloom bit after a
  // migration can force the escalated route onto an all-local closure)
  // has no tokens to wait for: resolve immediately.
  if (esc.waiting.empty()) FinishEscalation(pos);
}

void SeveShardServer::HandlePrepare(const ShardPrepareBody& prepare) {
  // Tokens are served immediately from committed state: no locks, no
  // waiting on in-flight actions, hence no cross-shard deadlock. The
  // escalated action's serial point is the owner's queue position; the
  // token values are the freshest committed remote values available at
  // prepare time (the Incomplete-World approximation across shards —
  // DESIGN.md §12 — backstopped by the serializability audit).
  auto body = std::make_shared<ShardTokenBody>();
  body->stamp = prepare.stamp;
  body->peer_shard = static_cast<int32_t>(shard_);
  body->epoch = prepare.epoch;
  body->token_seq = ++next_token_seq_;
  body->frontier = GlobalStampOf(queue_.begin_pos() - 1);
  body->values = state_.Extract(prepare.reads);
  outstanding_.push_back(OutstandingToken{
      prepare.stamp, static_cast<ShardId>(prepare.home_shard),
      body->token_seq});
  ++counters_.tokens_served;
  SendAfter(ToPeer(prepare.home_shard, std::move(body)),
            cost_.serialize_us + cost_.install_us);
}

void SeveShardServer::HandleToken(const ShardTokenBody& token) {
  SubmitWork(cost_.install_us, []() {});
  const SeqNum pos = LocalPosOfStamp(token.stamp);
  PendingEscalation* esc = pending_.Find(pos);
  if (esc == nullptr || token.epoch != esc->epoch) {
    // Escalation already aborted (rejoin fencing) or from a previous
    // epoch: the token retires peer-side via the abort we sent.
    ++counters_.stale_tokens;
    return;
  }
  const ShardId peer = static_cast<ShardId>(token.peer_shard);
  InlineVec<ShardId, 8> still;
  bool expected = false;
  for (const ShardId s : esc->waiting) {
    if (s == peer) {
      expected = true;
    } else {
      still.push_back(s);
    }
  }
  if (!expected) return;  // duplicate (transport retries are upstream)
  esc->waiting = still;
  esc->acked.push_back(
      PendingEscalation::Participant{peer, token.token_seq});
  esc->token_values.insert(esc->token_values.end(), token.values.begin(),
                           token.values.end());
  if (esc->waiting.empty()) FinishEscalation(pos);
}

void SeveShardServer::FinishEscalation(SeqNum pos) {
  PendingEscalation* esc = pending_.Find(pos);
  if (esc == nullptr) return;
  Micros cpu =
      cost_.serialize_us * static_cast<Micros>(esc->acked.size() + 1);
  std::vector<OrderedAction> batch;
  AssembleClosure(esc->origin, pos, esc->closure, &esc->included,
                  esc->token_values, &cpu, &batch);
  std::vector<Outgoing> out;
  if (!batch.empty()) {
    out.push_back(DeliverActions(esc->origin_node, std::move(batch)));
  }
  for (const PendingEscalation::Participant& part : esc->acked) {
    auto body = std::make_shared<ShardCommitBody>();
    body->stamp = GlobalStampOf(pos);
    body->home_shard = static_cast<int32_t>(shard_);
    body->token_seq = part.token_seq;
    out.push_back(ToPeer(part.shard, std::move(body)));
  }
  ++counters_.commits;
  pending_.Erase(pos);
  SendAllAfter(std::move(out), cpu);
}

void SeveShardServer::RetireToken(SeqNum stamp, ShardId home,
                                  SeqNum token_seq) {
  SubmitWork(cost_.serialize_us, []() {});
  outstanding_.erase(
      std::remove_if(outstanding_.begin(), outstanding_.end(),
                     [&](const OutstandingToken& tok) {
                       return tok.stamp == stamp && tok.home == home &&
                              (token_seq == kInvalidSeq ||
                               tok.token_seq == token_seq);
                     }),
      outstanding_.end());
}

void SeveShardServer::OnInstalled(const ServerQueue::Entry& entry) {
  // Freshen the origin's routing profile from the installed action
  // (push targeting and the migrated record both read it; no protocol
  // state depends on it).
  if (!entry.action->IsBlindWrite()) {
    const ClientTable::Slot slot = clients_.SlotOf(entry.action->origin());
    if (slot != ClientTable::kNoSlot) {
      clients_.SetProfile(slot, entry.action->Interest(), loop()->now());
    }
  }
  if (escalated_.count(entry.pos) != 0 && !entry.stable_written.empty()) {
    QueueEscalatedPush(entry);
  }
}

void SeveShardServer::OnFrontierAdvanced() {
  FlushEscalatedPushes();
  // A frontier advance may have drained the last uncommitted writer of
  // an object mid-handoff.
  RecheckMigrations();
}

void SeveShardServer::QueueEscalatedPush(const ServerQueue::Entry& entry) {
  // First-Bound style fan-out of a committed escalated closure: every
  // interested client of this shard gets the stable result as an
  // authoritative blind write at the entry's own stamp. Pure replica
  // freshening — the values equal what the origin's completion
  // installed, so server state and committed digests are untouched, and
  // the client's last-writer guard makes re-delivery idempotent.
  const OrderedAction record{GlobalStampOf(entry.pos),
                             NewBlindWrite(entry.stable_written)};
  const InterestProfile action_profile = entry.action->Interest();
  const VirtualTime now = loop()->now();
  const ClientTable::Slot origin_slot =
      clients_.SlotOf(entry.action->origin());
  const ClientTable::Slot slots = static_cast<ClientTable::Slot>(
      clients_.size());
  for (ClientTable::Slot slot = 0; slot < slots; ++slot) {
    if (slot == origin_slot) continue;
    if (entry.sent.count(clients_.id_of(slot)) != 0) continue;
    if (!interest_.MayAffect(action_profile, now, clients_.ProfileOf(slot),
                             clients_.profile_time(slot))) {
      continue;
    }
    // Capacity is retained across flushes (reserved at construction).
    push_scratch_.push_back({slot, record});
  }
}

void SeveShardServer::FlushEscalatedPushes() {
  if (push_scratch_.empty()) return;
  // Slot order == registration order: the deterministic fan-out order.
  std::stable_sort(push_scratch_.begin(), push_scratch_.end(),
                   [](const std::pair<ClientTable::Slot, OrderedAction>& a,
                      const std::pair<ClientTable::Slot, OrderedAction>& b) {
                     return a.first < b.first;
                   });
  std::vector<Outgoing> pushes;
  pushes.reserve(push_scratch_.size());  // upper bound: one batch per entry
  size_t i = 0;
  while (i < push_scratch_.size()) {
    const ClientTable::Slot slot = push_scratch_[i].first;
    size_t run_end = i;
    while (run_end < push_scratch_.size() &&
           push_scratch_[run_end].first == slot) {
      ++run_end;
    }
    auto body = std::make_shared<DeliverActionsBody>();
    body->actions.reserve(run_end - i);  // exact wire-body size
    while (i < run_end) {
      // Stable sort preserves install order within a slot: ascending
      // stamps, the order the client must apply them in.
      body->actions.push_back(push_scratch_[i].second);
      ++i;
    }
    ++stats_.fanout.push_batches;
    stats_.fanout.coalesced_pushes +=
        static_cast<int64_t>(body->actions.size()) - 1;
    ++counters_.escalated_pushes;
    pushes.push_back(Outgoing::Of(clients_.node(slot), std::move(body)));
  }
  push_scratch_.clear();
  const Micros cpu =
      cost_.serialize_us * static_cast<Micros>(pushes.size());
  SendAllAfter(std::move(pushes), cpu);
}

void SeveShardServer::HandleCompletion(const CompletionBody& completion) {
  const ShardId owner = ShardStamp::Shard(completion.pos);
  if (owner != shard_) {
    // Safety net for all-client completions and rehomed clients: a
    // completion quoting another shard's stamp routes to its owner (a
    // rehomed client keeps completing its source-stamped tail through
    // the destination).
    SendAfter(ToPeer(owner, std::make_shared<CompletionBody>(completion)),
              cost_.serialize_us);
    return;
  }
  ServeCompletion(completion, LocalPosOfStamp(completion.pos));
}

void SeveShardServer::AbortEscalationsFrom(ClientId client) {
  // Abort the crashed client's escalations still waiting for tokens —
  // the reply could never reach the new incarnation — and tell every
  // involved peer to retire its token.
  std::vector<Outgoing> aborts;
  for (const SeqNum pos : pending_.PositionsFrom(client)) {
    PendingEscalation* esc = pending_.Find(pos);
    if (esc == nullptr) continue;
    auto notify = [&](ShardId peer) {
      auto body = std::make_shared<ShardAbortBody>();
      body->stamp = GlobalStampOf(pos);
      body->home_shard = static_cast<int32_t>(shard_);
      aborts.push_back(ToPeer(peer, std::move(body)));
    };
    for (const ShardId peer : esc->waiting) notify(peer);
    for (const PendingEscalation::Participant& part : esc->acked) {
      notify(part.shard);
    }
    queue_.MarkInvalid(pos);
    ++counters_.aborts;
    pending_.Erase(pos);
  }
  if (aborts.empty()) return;
  SendAllAfter(std::move(aborts), cost_.serialize_us);
}

void SeveShardServer::HandleRejoin(const RejoinBody& rejoin) {
  if (!ResetClientSession(rejoin.client)) {
    // Case B of the crash race (DESIGN.md §14): the client rehomed to
    // this shard, crashed, and its rejoin beat the MigrateCommit here.
    // Forward the fact to the source once — it treats the rejoin as an
    // implicit RehomeAck and can invalidate the crashed incarnation's
    // unfinishable tail — and park the rejoin until the adoption lands.
    for (ExpectedAdoption& expected : expected_adoptions_) {
      if (expected.client != rejoin.client) continue;
      if (!expected.rejoin_forwarded) {
        expected.rejoin_forwarded = true;
        auto body = std::make_shared<MigrateRejoinBody>();
        body->client = expected.client;
        body->object = expected.object;
        SendAfter(ToPeer(expected.source, std::move(body)), cost_.serialize_us);
      }
      const RejoinBody parked = rejoin;
      loop()->After(options_.tick_us,
                    [this, parked]() { HandleRejoin(parked); });
      return;
    }
    return;  // neither registered nor expected: stale, drop
  }
  ++epoch_;  // fence: tokens echoing the old epoch are now stale

  AbortEscalationsFrom(rejoin.client);
  // Case A of the crash race: the client rejoined HERE, so it never
  // switched (or switched and reset) — cancel its not-yet-draining
  // outbound handoffs and release the destinations' adoption slots.
  CancelMigrationsFor(rejoin.client);
  // The client's resolved-but-uncompleted escalations can never finish
  // either: only the dead incarnation received the reply, and a
  // cross-shard closure cannot be replayed from a partition snapshot.
  // Invalidate them so the committed frontier keeps advancing. (Peers'
  // tokens were already retired by the commits FinishEscalation sent.)
  (void)InvalidateUncompleted(rejoin.client, /*escalated_only=*/true);
}

bool SeveShardServer::InvalidateUncompleted(ClientId client,
                                            bool escalated_only) {
  for (SeqNum pos = queue_.begin_pos(); pos < queue_.end_pos(); ++pos) {
    ServerQueue::Entry* entry = queue_.Find(pos);
    if (entry == nullptr || !entry->valid || entry->completed) continue;
    if (entry->action->origin() != client) continue;
    if (escalated_only && escalated_.count(pos) == 0) continue;
    queue_.MarkInvalid(pos);
    ++counters_.aborts;
  }
  return CompleteInvalidHead();
}

bool SeveShardServer::AwaitingAdoption(ClientId client) const {
  if (clients_.SlotOf(client) != ClientTable::kNoSlot) return false;
  for (const ExpectedAdoption& expected : expected_adoptions_) {
    if (expected.client == client) return true;
  }
  return false;
}

void SeveShardServer::HandleSnapshotRequest(
    const SnapshotRequestBody& request, NodeId src) {
  if (AwaitingAdoption(request.client)) {
    const SnapshotRequestBody parked = request;
    loop()->After(options_.tick_us, [this, parked, src]() {
      HandleSnapshotRequest(parked, src);
    });
    return;
  }
  ServeSnapshot(request, src);
}

void SeveShardServer::HandleSyncRequest(const SyncRequestBody& request,
                                        NodeId src) {
  if (request.mode == kSyncModeOwnerMap) {
    // Responder side of a shard-pair ring round: estimate the ownership
    // divergence and ask the initiating shard for an IBF sized to it.
    ++stats_.sync.sync_rounds;
    stats_.sync.strata_bytes += request.strata.WireBytes();
    const int64_t est =
        sync::BuildStrata(OwnerSummary()).Estimate(request.strata);
    if (est == 0) {
      ++stats_.sync.ae_rounds;  // views already agree
    } else {
      RequestIbf(src, request.client, request.mode, est);
    }
    return;
  }
  if (request.mode == kSyncModeRejoin && AwaitingAdoption(request.client)) {
    const SyncRequestBody parked = request;
    loop()->After(options_.tick_us, [this, parked, src]() {
      HandleSyncRequest(parked, src);
    });
    return;
  }
  ServeSyncRequest(request, src);
}

void SeveShardServer::HandleSyncIBFRequest(const SyncIBFRequestBody& request,
                                           NodeId src) {
  // Initiator side of an owner-map round (client-mode IBF requests are
  // answered by clients, never by shards).
  if (request.mode != kSyncModeOwnerMap) return;
  auto reply = std::make_shared<SyncIBFBody>();
  reply->client = request.client;
  reply->mode = request.mode;
  reply->ibf = sync::BuildIbf(OwnerSummary(), request.cells);
  SendAfter(Outgoing::Of(src, std::move(reply)),
            cost_.serialize_us + cost_.install_us);
}

void SeveShardServer::HandleSyncIBF(const SyncIBFBody& body, NodeId src) {
  if (body.mode != kSyncModeOwnerMap) {
    ServeSyncIBF(body, src);
    return;
  }
  const sync::KeyDiffPlan plan = sync::PlanKeyDiff(OwnerSummary(), body.ibf);
  if (!plan.ok) {
    // A failed round just waits for the next period.
    ++stats_.sync.decode_failures;
    return;
  }
  std::vector<ObjectId> ids;
  ids.reserve(plan.keys.size());
  for (const uint64_t key : plan.keys) ids.push_back(ObjectId(key));
  stats_.sync.owner_repairs += RepairOwners(ids);
  ++stats_.sync.ae_rounds;
  if (ids.empty()) return;
  // Ship the divergent ids back so the initiator repairs its side from
  // the authoritative map too.
  auto reply = std::make_shared<SyncDeltaBody>();
  reply->client = body.client;
  reply->mode = body.mode;
  reply->total = 1;
  reply->removed = std::move(ids);
  SendAfter(Outgoing::Of(src, std::move(reply)), cost_.serialize_us);
}

void SeveShardServer::HandleSyncDelta(const SyncDeltaBody& delta,
                                      NodeId src) {
  (void)src;
  // Closing leg of an owner-map round: the responder's divergent-id
  // list; repair our entries from the authoritative shared map.
  if (delta.mode != kSyncModeOwnerMap) return;
  SubmitWork(cost_.install_us, []() {});
  stats_.sync.owner_repairs += RepairOwners(delta.removed);
}

sync::Summary SeveShardServer::OwnerSummary() const {
  sync::Summary out;
  out.reserve(owner_view_.size());
  owner_view_.ForEach([&out](const ObjectId& id, const ShardId& owner) {
    // ver = owner + 1 keeps a believed shard-0 owner distinct from the
    // all-zero absent element.
    out.push_back(sync::SummaryEntry{
        id.value(), static_cast<uint64_t>(owner) + 1});
  });
  return out;
}

int64_t SeveShardServer::RepairOwners(const std::vector<ObjectId>& ids) {
  int64_t changed = 0;
  for (const ObjectId id : ids) {
    const ShardId truth = map_->ShardOfObject(id);
    ShardId* mine = owner_view_.Find(id);
    if (mine == nullptr) {
      owner_view_[id] = truth;
      ++changed;
    } else if (*mine != truth) {
      *mine = truth;
      ++changed;
    }
  }
  return changed;
}

void SeveShardServer::OwnerAeTick() {
  if (peer_nodes_.size() < 2) return;
  const ShardId succ = static_cast<ShardId>(
      (shard_ + 1) % static_cast<ShardId>(peer_nodes_.size()));
  auto body = std::make_shared<SyncRequestBody>();
  body->mode = kSyncModeOwnerMap;
  body->strata = sync::BuildStrata(OwnerSummary());
  SendAfter(ToPeer(succ, std::move(body)), cost_.serialize_us);
}

void SeveShardServer::StartAntiEntropy() {
  if (options_.shard_anti_entropy_period_us <= 0) return;
  if (peer_nodes_.size() < 2) return;
  ae_running_ = true;
  loop()->After(options_.shard_anti_entropy_period_us, [this]() {
    if (!ae_running_) return;
    OwnerAeTick();
    StartAntiEntropy();
  });
}

void SeveShardServer::StopAntiEntropy() { ae_running_ = false; }

int64_t SeveShardServer::stale_owner_entries() const {
  int64_t stale = 0;
  owner_view_.ForEach([this, &stale](const ObjectId& id,
                                     const ShardId& owner) {
    if (map_->ShardOfObject(id) != owner) ++stale;
  });
  return stale;
}

// ---- Ownership migration (DESIGN.md §14) ----------------------------------

bool SeveShardServer::StartMigration(ObjectId object, ShardId dest) {
  // Rebalancer plans can be stale by the time they execute (a previous
  // epoch's move, a crash-cancelled handoff): every precondition is
  // re-checked here and a false return is a no-op.
  if (dest == shard_ || dest < 0 ||
      dest >= static_cast<ShardId>(peer_nodes_.size())) {
    return false;
  }
  if (map_->ShardOfObject(object) != shard_) return false;
  for (const MigrationOut& out : migrating_out_) {
    if (out.object == object) return false;
  }
  // Just adopted and still settling (the commit may still be queued
  // behind our frontier): no onward migration until it lands.
  for (const ExpectedAdoption& expected : expected_adoptions_) {
    if (expected.object == object) return false;
  }
  MigrationOut out;
  out.object = object;
  out.dest = dest;
  out.epoch = epoch_;
  if (const ClientId* client = avatar_client_.Find(object)) {
    const ClientTable::Slot slot = clients_.SlotOf(*client);
    if (slot != ClientTable::kNoSlot) {
      out.client = *client;
      out.client_node = clients_.node(slot);
    }
  }
  migrating_out_.push_back(out);

  auto body = std::make_shared<MigrateOfferBody>();
  body->object = object;
  body->source_shard = static_cast<int32_t>(shard_);
  body->dest_shard = static_cast<int32_t>(dest);
  body->epoch = epoch_;
  body->client = out.client;
  SendAfter(ToPeer(dest, std::move(body)), cost_.serialize_us);
  return true;
}

void SeveShardServer::HandleMigrateOffer(const MigrateOfferBody& offer) {
  SubmitWork(cost_.serialize_us, []() {});
  for (const ExpectedAdoption& expected : expected_adoptions_) {
    if (expected.object == offer.object) return;  // duplicate offer
  }
  ExpectedAdoption expected;
  expected.object = offer.object;
  expected.source = static_cast<ShardId>(offer.source_shard);
  expected.client = offer.client;
  expected_adoptions_.push_back(expected);

  auto body = std::make_shared<MigrateAckBody>();
  body->object = offer.object;
  body->dest_shard = static_cast<int32_t>(shard_);
  body->epoch = offer.epoch;
  SendAfter(ToPeer(offer.source_shard, std::move(body)), cost_.serialize_us);
}

void SeveShardServer::HandleMigrateAck(const MigrateAckBody& ack) {
  SubmitWork(cost_.serialize_us, []() {});
  for (MigrationOut& out : migrating_out_) {
    if (out.object != ack.object ||
        out.phase != MigrationOut::Phase::kOffered) {
      continue;
    }
    if (out.client.valid()) {
      // Park the client: it buffers submissions until the destination
      // says RehomeDone, and its RehomeAck bounds the straggler window
      // (FIFO link: everything it sent before the ack is already in our
      // queue, so the drain wait below covers it).
      out.phase = MigrationOut::Phase::kAwaitRehomeAck;
      auto body = std::make_shared<RehomeBody>();
      body->object = out.object;
      body->client = out.client;
      body->dest_node =
          peer_nodes_[static_cast<size_t>(out.dest)].value();
      body->epoch = out.epoch;
      SendAfter(Outgoing::Of(out.client_node, std::move(body)),
                cost_.serialize_us);
    } else {
      out.phase = MigrationOut::Phase::kDraining;
    }
    break;
  }
  RecheckMigrations();
}

void SeveShardServer::HandleRehomeAck(const RehomeAckBody& ack) {
  SubmitWork(cost_.serialize_us, []() {});
  for (MigrationOut& out : migrating_out_) {
    if (out.object == ack.object &&
        out.phase == MigrationOut::Phase::kAwaitRehomeAck) {
      out.phase = MigrationOut::Phase::kDraining;
      break;
    }
  }
  RecheckMigrations();
}

void SeveShardServer::RecheckMigrations() {
  if (migrating_out_.empty()) return;
  // Collect first: CommitMigration erases from migrating_out_.
  InlineVec<ObjectId, 8> ready;
  for (const MigrationOut& out : migrating_out_) {
    if (out.phase == MigrationOut::Phase::kDraining &&
        !queue_.HasUncommittedWriter(out.object)) {
      ready.push_back(out.object);
    }
  }
  for (const ObjectId object : ready) CommitMigration(object);
}

void SeveShardServer::CommitMigration(ObjectId object) {
  auto it = migrating_out_.begin();
  while (it != migrating_out_.end() && it->object != object) ++it;
  if (it == migrating_out_.end()) return;
  const MigrationOut out = *it;
  migrating_out_.erase(it);

  auto body = std::make_shared<MigrateCommitBody>();
  body->object = object;
  body->source_shard = static_cast<int32_t>(shard_);
  body->epoch = out.epoch;
  // The fence: the newest stamp this shard has issued. Every stamp the
  // destination mints from its adoption on sorts strictly above it, so
  // the rehomed client's last-writer order stays monotone across the
  // handoff.
  body->fence = GlobalStampOf(queue_.end_pos() - 1);
  if (const Object* value = state_.Find(object)) {
    body->value.push_back(*value);
  }
  if (out.client.valid()) {
    const ClientTable::Slot slot = clients_.SlotOf(out.client);
    if (slot != ClientTable::kNoSlot) {
      const ClientTable::ClientRecord record = clients_.ExtractRecord(slot);
      body->client = record.id;
      body->client_node = record.node.value();
      body->profile = record.profile;
      // The slot stays behind as an inert record (ClientTable has no
      // unregister); drop its queued pushes so flushes skip it.
      clients_.ClearPending(slot);
    }
  }
  // The commit point: value leaves the partition, the shared map flips
  // the owner, routing follows from the next lookup on.
  state_.Remove(object);
  map_->MigrateOwner(object, out.dest);
  owner_view_[object] = out.dest;  // a participant's view stays fresh
  avatar_client_.Erase(object);
  ++counters_.migrations_out;

  SendAfter(ToPeer(out.dest, std::move(body)),
            cost_.serialize_us + cost_.install_us);
}

void SeveShardServer::HandleMigrateCommit(const MigrateCommitBody& commit) {
  auto it = expected_adoptions_.begin();
  while (it != expected_adoptions_.end() && it->object != commit.object) {
    ++it;
  }
  if (it == expected_adoptions_.end()) return;  // aborted then re-offered
  expected_adoptions_.erase(it);

  // Adopt: all stamps from here on sort above everything the source
  // ever issued, and the record enters this shard's stream as a
  // completed blind write — authoritative, excluded from the audit
  // (its "result" was computed by the source's installs, not an
  // evaluation of ours).
  FenceStampsAbove(commit.fence);
  owner_view_[commit.object] = shard_;  // a participant's view stays fresh
  const SeqNum pos =
      queue_.Append(NewBlindWrite(commit.value), loop()->now());
  audit_excluded_.insert(pos);
  ++counters_.migrations_in;

  std::vector<Outgoing> done;
  if (commit.client.valid()) {
    ClientTable::ClientRecord record;
    record.id = commit.client;
    record.node = NodeId(commit.client_node);
    record.profile = commit.profile;
    (void)clients_.Adopt(record, loop()->now());
    avatar_client_[commit.object] = commit.client;
    ++counters_.rehomed_clients;
    auto body = std::make_shared<RehomeDoneBody>();
    body->client = commit.client;
    body->object = commit.object;
    done.push_back(Outgoing::Of(record.node, std::move(body)));
  }
  SendAllAfter(std::move(done), cost_.serialize_us + cost_.install_us);
  // Install the adoption (it completes in place; the frontier advances
  // over it once everything older commits).
  CompleteAt(pos, 0, commit.value);
}

void SeveShardServer::HandleMigrateAbort(const MigrateAbortBody& abort) {
  SubmitWork(cost_.serialize_us, []() {});
  auto it = expected_adoptions_.begin();
  while (it != expected_adoptions_.end() && it->object != abort.object) {
    ++it;
  }
  if (it != expected_adoptions_.end()) expected_adoptions_.erase(it);
}

void SeveShardServer::CancelMigrationsFor(ClientId client) {
  auto it = migrating_out_.begin();
  while (it != migrating_out_.end()) {
    if (it->client != client ||
        it->phase == MigrationOut::Phase::kDraining) {
      // A draining handoff is past the point of no return: the client
      // already switched (its rejoin would land at the destination).
      ++it;
      continue;
    }
    auto body = std::make_shared<MigrateAbortBody>();
    body->object = it->object;
    body->source_shard = static_cast<int32_t>(shard_);
    body->epoch = it->epoch;
    SendAfter(ToPeer(it->dest, std::move(body)), cost_.serialize_us);
    ++counters_.migration_aborts;
    it = migrating_out_.erase(it);
  }
}

void SeveShardServer::HandleMigrateRejoin(const MigrateRejoinBody& rejoin) {
  SubmitWork(cost_.serialize_us, []() {});
  // The destination vouches that the client is pointed at it: an
  // implicit RehomeAck (the real one died with the old incarnation).
  for (MigrationOut& out : migrating_out_) {
    if (out.object == rejoin.object) {
      out.phase = MigrationOut::Phase::kDraining;
    }
  }
  ++stats_.rejoins;
  ++epoch_;  // fence: tokens echoing the old epoch are now stale
  AbortEscalationsFrom(rejoin.client);
  // The crashed incarnation's whole uncompleted tail is unfinishable —
  // escalated or not, nobody will ever complete it (the new incarnation
  // starts from the destination's snapshot). Invalidate it so the drain
  // wait terminates and the handoff can commit.
  if (!InvalidateUncompleted(rejoin.client, /*escalated_only=*/false)) {
    RecheckMigrations();
  }
}

}  // namespace seve
