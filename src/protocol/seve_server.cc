#include "protocol/seve_server.h"

#include <algorithm>
#include <cassert>

namespace seve {

SeveServer::SeveServer(NodeId node, EventLoop* loop, WorldState initial,
                       const CostModel& cost, const InterestModel& interest,
                       const SeveOptions& options, const AABB& world_bounds)
    : SerializerCore(node, loop, std::move(initial), cost, interest, options,
                     /*first_blind_id=*/ActionId::ValueType{1} << 62),
      client_index_(world_bounds,
                    std::max(1.0, interest.ReachTerm() + 1.0)) {
  // Chain breaking piggybacks on the push machinery; the pure
  // reply-on-submission mode ships actions before their tick's validity
  // decision, so dropping requires proactive push.
  assert(!options_.dropping || options_.proactive_push);
  ready_scratch_.reserve(ClientTable::kInitialPendingCapacity);
}

void SeveServer::RegisterClient(ClientId client, NodeId node,
                                const InterestProfile& profile) {
  const ClientTable::Slot slot =
      clients_.Register(client, node, profile, loop()->now());
  (void)client_index_.Insert(slot,
                             AABB::FromCircle(profile.position, 0.0));
  max_client_radius_ = std::max(max_client_radius_, profile.radius);
}

void SeveServer::Start() {
  running_ = true;
  // Pre-size the routing scratch for the registered population: a circle
  // query yields at most one key per client, so after this reserve the
  // steady-state route path performs no allocation (fanout.route_alloc
  // stays 0).
  route_scratch_.reserve(clients_.size());
  dirty_scratch_.reserve(clients_.size());
  if (options_.dropping) {
    loop()->After(options_.tick_us, [this]() { OnTick(); });
  }
  if (options_.proactive_push) {
    const Micros push_period = static_cast<Micros>(
        options_.omega * static_cast<double>(interest_.rtt_us()));
    loop()->After(std::max<Micros>(push_period, 1),
                  [this]() { OnPushCycle(); });
  }
  if (options_.commit_notice_period_us > 0) {
    loop()->After(options_.commit_notice_period_us,
                  [this]() { SendCommitNotices(); });
  }
}

void SeveServer::OnMessage(const Message& msg) {
  switch (msg.body->kind()) {
    case kSubmitAction: {
      const auto& submit = static_cast<const SubmitActionBody&>(*msg.body);
      HandleSubmit(submit.action->origin(), submit.action, submit.resync);
      break;
    }
    case kCompletion: {
      const auto& completion = static_cast<const CompletionBody&>(*msg.body);
      ServeCompletion(completion, completion.pos);
      break;
    }
    case kRejoin:
      (void)ResetClientSession(
          static_cast<const RejoinBody&>(*msg.body).client);
      break;
    case kSnapshotRequest:
      ServeSnapshot(static_cast<const SnapshotRequestBody&>(*msg.body),
                    msg.src);
      break;
    case kSyncRequest:
      ServeSyncRequest(static_cast<const SyncRequestBody&>(*msg.body),
                       msg.src);
      break;
    case kSyncIBF:
      ServeSyncIBF(static_cast<const SyncIBFBody&>(*msg.body), msg.src);
      break;
    default:
      break;
  }
}

void SeveServer::HandleSubmit(ClientId from, ActionPtr action,
                              const ObjectSet& resync) {
  const SeqNum pos = queue_.Append(action, loop()->now());
  ++stats_.actions_submitted;
  UpdateClientProfile(from, action->Interest());

  Micros cpu = cost_.serialize_us;
  if (options_.proactive_push) cpu += RouteToClients(pos, *action);
  if (!options_.dropping) {
    // The submitter gets its closure reply immediately, one round trip
    // (Algorithm 5 step 4b). With push, pushes pre-warm the *other*
    // interested clients, which is what keeps these replies lean
    // (Section III-D).
    validity_frontier_ = pos + 1;
    const ClientTable::Slot slot = clients_.SlotOf(from);
    if (slot != ClientTable::kNoSlot) {
      std::vector<OrderedAction> batch;
      AppendClosure(from, pos, &cpu, &batch, resync);
      SendAfter(DeliverActions(clients_.node(slot), std::move(batch)), cpu);
      return;
    }
    if (!options_.proactive_push) return;
  } else if (options_.move_supersession && action->IsMovement()) {
    // Updatable queue: this move supersedes the origin's still-queued,
    // never-sent predecessor. Only reachable in dropping mode — the
    // synchronous reply above marks the predecessor sent otherwise.
    const SeqNum prev = queue_.NoteMovementAppend(pos, from);
    if (prev != kInvalidSeq) SupersedeMove(prev);
  }
  // With dropping enabled the echo must wait for this tick's validity
  // decision; OnTick sends the origin replies right after deciding.
  if (!resync.empty()) pending_resync_[pos] = resync;
  SubmitWork(cpu, []() {});
}

void SeveServer::SupersedeMove(SeqNum prev) {
  ServerQueue::Entry* entry = queue_.Find(prev);
  if (entry == nullptr) return;
  Drop drop{prev, entry->action};
  queue_.MarkInvalid(prev);
  ++stats_.fanout.superseded_moves;
  // Stale pending-push references and the resync stash resolve lazily /
  // eagerly: AppendClosure skips invalid entries, the stash dies here.
  pending_resync_.Erase(prev);
  (void)CompleteInvalidHead();
  if (clients_.SlotOf(drop.action->origin()) == ClientTable::kNoSlot) return;
  // The origin rolls the superseded move back exactly like an
  // Information Bound drop: notice + authoritative refresh of its reads.
  SubmitWork(cost_.serialize_us,
             [this, drop = std::move(drop)]() { SendDropNotice(drop); });
}

void SeveServer::SendDropNotice(const Drop& drop) {
  const ClientTable::Slot slot = clients_.SlotOf(drop.action->origin());
  if (slot == ClientTable::kNoSlot) return;
  auto body = std::make_shared<DropNoticeBody>();
  body->action_id = drop.action->id();
  body->pos = drop.pos;
  // Refresh the origin's view of everything the dropped action read, so
  // its next declaration starts from authoritative positions.
  body->refresh = state_.Extract(drop.action->ReadSet());
  body->refresh_pos = queue_.begin_pos() - 1;
  SendNow(Outgoing::Of(clients_.node(slot), std::move(body)));
}

Micros SeveServer::RouteToClients(SeqNum pos, const Action& action) {
  const InterestProfile profile = action.Interest();
  // With velocity culling the influence center may be projected by up to
  // s·(1+ω)RTT (= half the reach term); widen the spatial pre-filter so
  // the exact test sees every possible hit.
  const double projection_margin =
      interest_.velocity_culling() ? 0.5 * interest_.ReachTerm() : 0.0;
  const double query_radius = interest_.ReachTerm() + profile.radius +
                              max_client_radius_ + projection_margin;
  route_scratch_.clear();
  const size_t cap_before = route_scratch_.capacity();
  client_index_.CollectCircleInto(profile.position, query_radius,
                                  &route_scratch_);
  if (route_scratch_.capacity() != cap_before) ++stats_.fanout.route_alloc;
  const int candidates = static_cast<int>(route_scratch_.size());
  const ClientTable::Slot origin_slot = clients_.SlotOf(action.origin());
  const VirtualTime now = loop()->now();
  bool origin_routed = false;
  for (const uint64_t key : route_scratch_) {
    const auto slot = static_cast<ClientTable::Slot>(key);
    if (slot != origin_slot &&
        !interest_.MayAffect(profile, now, clients_.ProfileOf(slot),
                             clients_.profile_time(slot))) {
      continue;
    }
    if (slot == origin_slot) origin_routed = true;
    clients_.MarkPending(slot, pos, &stats_.fanout.route_alloc);
  }
  // The origin always gets its own action back even if the spatial query
  // missed it (e.g. a zero-radius profile on a grid boundary).
  if (origin_slot != ClientTable::kNoSlot && !origin_routed) {
    clients_.MarkPending(origin_slot, pos, &stats_.fanout.route_alloc);
  }
  return static_cast<Micros>(cost_.interest_test_us *
                             static_cast<double>(std::max(candidates, 1)));
}

void SeveServer::AppendClosure(ClientId client, SeqNum pos,
                               Micros* cpu_cost,
                               std::vector<OrderedAction>* out,
                               const ObjectSet& resync) {
  const ServerQueue::Entry* target = queue_.Find(pos);
  if (target == nullptr || !target->valid) return;
  if (target->sent.count(client) != 0) return;
  const ObjectSet closure = WalkClosure(client, pos, resync, cpu_cost);
  AssembleClosure(client, pos, closure, &closure_included_, {}, cpu_cost,
                  out);
}

void SeveServer::OnTick() {
  // Algorithm 7, onNextTick(): decide validity for every action submitted
  // since the previous tick, in submission order. An action is dropped
  // when its transitive conflict chain reaches an action farther than
  // `threshold` away.
  Micros cpu = 0;
  std::vector<Drop> drops;
  const SeqNum end = queue_.end_pos();
  const SeqNum scan_start = std::max(tick_scan_pos_, queue_.begin_pos());
  for (SeqNum pos = scan_start; pos < end; ++pos) {
    ServerQueue::Entry* entry = queue_.Find(pos);
    if (entry == nullptr || !entry->valid) continue;
    const Vec2 anchor = queue_.Record(pos).anchor;
    bool invalid = false;
    const int visits = queue_.WalkConflicts(
        pos, nullptr, [&](SeqNum, const ServerQueue::WalkRec& other) {
          if (Distance(anchor, other.anchor) > options_.threshold) {
            invalid = true;
            return ServerQueue::WalkVerdict::kStop;
          }
          // S ← (S − WS(A_j)) ∪ RS(A_j); with RS ⊇ WS this is S ∪ RS.
          return ServerQueue::WalkVerdict::kInclude;
        });
    stats_.closure_visits += visits;
    cpu += static_cast<Micros>(cost_.closure_per_visit_us *
                               static_cast<double>(visits + 1));
    if (invalid) {
      queue_.MarkInvalid(pos);
      ++stats_.actions_dropped;
      // Information Bound drops are rare: the notice list grows
      // amortized over the run, not per tick.
      // seve-lint: allow(hot-vector-realloc): rare drop path
      drops.push_back(Drop{pos, entry->action});
      (void)CompleteInvalidHead();
    }
  }
  tick_scan_pos_ = end;
  validity_frontier_ = end;

  // Send the surviving submitters their closure replies now — the echo
  // waits only for the validity decision, never for the push cadence.
  std::vector<Outgoing> replies;
  replies.reserve(static_cast<size_t>(end - scan_start));
  for (SeqNum pos = scan_start; pos < end; ++pos) {
    const ServerQueue::Entry* entry = queue_.Find(pos);
    if (entry == nullptr || !entry->valid) {
      pending_resync_.Erase(pos);
      continue;
    }
    const ClientId origin = entry->action->origin();
    const ClientTable::Slot slot = clients_.SlotOf(origin);
    if (slot == ClientTable::kNoSlot) continue;
    ObjectSet resync;
    if (ObjectSet* stashed = pending_resync_.Find(pos)) {
      resync = std::move(*stashed);
      pending_resync_.Erase(pos);
    }
    std::vector<OrderedAction> batch;
    AppendClosure(origin, pos, &cpu, &batch, resync);
    if (!batch.empty()) {
      replies.push_back(DeliverActions(clients_.node(slot), std::move(batch)));
    }
  }

  SubmitWork(cpu, [this, drops = std::move(drops),
                   replies = std::move(replies)]() {
    for (const Outgoing& reply : replies) SendNow(reply);
    for (const Drop& drop : drops) SendDropNotice(drop);
  });

  if (running_) {
    loop()->After(options_.tick_us, [this]() { OnTick(); });
  }
}

void SeveServer::FlushSlot(ClientTable::Slot slot) {
  if (InCatchup(slot)) {
    // Paced catch-up in flight: the rejoining client drops regular
    // pushes, so flushing now would mark entries sent that never land.
    // Park the slot; PumpCatchups re-dirties it when the transfer ends.
    clients_.MarkDirty(slot);
    return;
  }
  std::vector<SeqNum>& pending = clients_.pending(slot);
  if (pending.empty()) return;
  // Partition in place against the validity frontier: ready positions
  // move to the scratch, the rest compact to the front (order and
  // capacity retained).
  ready_scratch_.clear();
  size_t keep = 0;
  for (SeqNum pos : pending) {
    if (pos < validity_frontier_) {
      ready_scratch_.push_back(pos);
    } else {
      pending[keep++] = pos;
    }
  }
  pending.resize(keep);
  // Dirty-list invariant: a slot left with pending work stays stamped in
  // the (new) epoch so the next cycle revisits it.
  if (keep > 0) clients_.MarkDirty(slot);
  if (ready_scratch_.empty()) return;
  std::sort(ready_scratch_.begin(), ready_scratch_.end());

  const ClientId client = clients_.id_of(slot);
  Micros cpu = 0;
  std::vector<OrderedAction> batch;
  for (SeqNum pos : ready_scratch_) {
    AppendClosure(client, pos, &cpu, &batch);
  }
  if (batch.empty()) return;
  // Restore global serialization order across the concatenated
  // sub-closures: a later target's chain may reach below an earlier
  // target's position, and clients must apply in pos order. (Blind
  // writes carry the committed frontier, so they sort to the front.)
  std::stable_sort(batch.begin(), batch.end(),
                   [](const OrderedAction& a, const OrderedAction& b) {
                     return a.pos < b.pos;
                   });
  ++stats_.fanout.push_batches;
  stats_.fanout.coalesced_pushes +=
      static_cast<int64_t>(ready_scratch_.size()) - 1;
  SendAfter(DeliverActions(clients_.node(slot), std::move(batch)), cpu);
}

void SeveServer::OnPushCycle() {
  ++stats_.fanout.flush_cycles;
  clients_.TakeDirty(&dirty_scratch_);
  stats_.fanout.dirty_slots_flushed +=
      static_cast<int64_t>(dirty_scratch_.size());
  for (const ClientTable::Slot slot : dirty_scratch_) {
    FlushSlot(slot);
  }

  if (running_) {
    const Micros push_period = static_cast<Micros>(
        options_.omega * static_cast<double>(interest_.rtt_us()));
    loop()->After(std::max<Micros>(push_period, 1),
                  [this]() { OnPushCycle(); });
  }
}

void SeveServer::FlushAll() {
  if (options_.dropping) OnTick();
  validity_frontier_ = queue_.end_pos();
  DrainCatchups();
  OnPushCycle();
}

void SeveServer::UpdateClientProfile(ClientId client,
                                     const InterestProfile& profile) {
  const ClientTable::Slot slot = clients_.SlotOf(client);
  if (slot == ClientTable::kNoSlot) return;
  clients_.SetProfile(slot, profile, loop()->now());
  (void)client_index_.Move(slot, AABB::FromCircle(profile.position, 0.0));
  max_client_radius_ = std::max(max_client_radius_, profile.radius);
}

void SeveServer::SendCommitNotices() {
  auto body = std::make_shared<CommitNoticeBody>();
  body->pos = queue_.begin_pos() - 1;
  Outgoing notice = Outgoing::Of(NodeId::Invalid(), std::move(body));
  const size_t n = clients_.size();
  for (size_t slot = 0; slot < n; ++slot) {
    notice.node = clients_.node(static_cast<ClientTable::Slot>(slot));
    SendNow(notice);
  }
  if (running_ && options_.commit_notice_period_us > 0) {
    loop()->After(options_.commit_notice_period_us,
                  [this]() { SendCommitNotices(); });
  }
}

}  // namespace seve
