#include "protocol/serializer_core.h"

#include <algorithm>
#include <utility>

#include "action/blind_write.h"
#include "net/channel.h"
#include "sync/reconcile.h"

namespace seve {
namespace {

/// Chunks needed for `objects` objects; at least one, since the last
/// chunk carries the tail and ends the catch-up.
int64_t ChunkCount(size_t objects, int64_t per_chunk) {
  return std::max<int64_t>(
      1, (static_cast<int64_t>(objects) + per_chunk - 1) / per_chunk);
}

/// Slices `ids` into chunk bodies of at most `per_chunk` objects each,
/// valued from `state` at commit frontier stamp `snapshot_pos`.
template <typename Body>
std::vector<std::shared_ptr<Body>> ChunkObjects(
    const WorldState& state, const std::vector<ObjectId>& ids,
    int64_t per_chunk, SeqNum snapshot_pos) {
  const int64_t total = ChunkCount(ids.size(), per_chunk);
  std::vector<std::shared_ptr<Body>> chunks;
  chunks.reserve(static_cast<size_t>(total));
  for (int64_t c = 0; c < total; ++c) {
    auto body = std::make_shared<Body>();
    body->snapshot_pos = snapshot_pos;
    body->chunk = c;
    body->total = total;
    const size_t begin = static_cast<size_t>(c * per_chunk);
    const size_t end = std::min(ids.size(),
                                static_cast<size_t>((c + 1) * per_chunk));
    body->objects.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      const Object* obj = state.Find(ids[i]);
      if (obj != nullptr) body->objects.push_back(*obj);
    }
    chunks.push_back(std::move(body));
  }
  return chunks;
}

}  // namespace

SerializerCore::SerializerCore(NodeId node, EventLoop* loop,
                               WorldState initial, const CostModel& cost,
                               const InterestModel& interest,
                               const SeveOptions& options,
                               ActionId::ValueType first_blind_id)
    : Node(node, loop),
      state_(std::move(initial)),
      cost_(cost),
      interest_(interest),
      options_(options),
      next_blind_id_(first_blind_id) {
  closure_included_.reserve(ClientTable::kInitialPendingCapacity);
}

std::shared_ptr<const Action> SerializerCore::NewBlindWrite(
    std::vector<Object> values) {
  ++stats_.blind_writes;
  return std::make_shared<BlindWrite>(ActionId(next_blind_id_++),
                                      loop()->now() / options_.tick_us,
                                      std::move(values));
}

OrderedAction SerializerCore::ShipEntry(const ServerQueue::Entry& entry) {
  if (!entry.completed) {
    return OrderedAction{WireStamp(entry.pos), entry.action};
  }
  return OrderedAction{WireStamp(entry.pos),
                       NewBlindWrite(entry.stable_written)};
}

ObjectSet SerializerCore::WalkClosure(ClientId client, SeqNum pos,
                                      const ObjectSet& resync, Micros* cpu) {
  ObjectSet closure =
      ObjectSet::Union(queue_.Find(pos)->action->ReadSet(), resync);
  closure_included_.clear();
  const int visits = queue_.WalkConflicts(
      pos, &closure, [&](SeqNum p, const ServerQueue::WalkRec& rec) {
        if (queue_.Find(p)->sent.count(client) != 0 &&
            !rec.action->WriteSet().Intersects(resync)) {
          return ServerQueue::WalkVerdict::kResolve;
        }
        // Not yet sent — or sent but the client flagged its outputs as
        // non-replayable, so re-deliver (as stable values once known).
        closure_included_.push_back(p);
        return ServerQueue::WalkVerdict::kInclude;
      });
  stats_.closure_visits += visits;
  *cpu += static_cast<Micros>(cost_.closure_per_visit_us *
                              static_cast<double>(visits + 1));
  return closure;
}

void SerializerCore::AssembleClosure(ClientId client, SeqNum pos,
                                     const ObjectSet& closure,
                                     std::vector<SeqNum>* included,
                                     const std::vector<Object>& remote_values,
                                     Micros* cpu,
                                     std::vector<OrderedAction>* out) {
  ServerQueue::Entry* target = queue_.Find(pos);
  if (target == nullptr || !target->valid) return;
  // Mark sent(a) ∪= {C} for the target and every included action.
  target->sent.insert(client);
  for (const SeqNum p : *included) {
    ServerQueue::Entry* entry = queue_.Find(p);
    if (entry != nullptr) entry->sent.insert(client);
  }

  // Assemble in ascending pos order with the blind write W(S, ζS(S))
  // first (Algorithm 6 prepends it last).
  std::sort(included->begin(), included->end());
  const size_t start = out->size();
  out->reserve(start + included->size() + 2);
  if (!closure.empty() || !remote_values.empty()) {
    // Extract skips ids held elsewhere; prepare-token values cover them.
    // At the committed-frontier stamp every value is older than any
    // queued action it accompanies, and joins the client's last-writer
    // order through this server's own monotone stream.
    std::vector<Object> values = state_.Extract(closure);
    values.insert(values.end(), remote_values.begin(), remote_values.end());
    out->push_back(OrderedAction{WireStamp(queue_.begin_pos() - 1),
                                 NewBlindWrite(std::move(values))});
    *cpu += cost_.install_us;
  }
  for (const SeqNum p : *included) {
    const ServerQueue::Entry* entry = queue_.Find(p);
    // Entries committed since the walk are covered by the head blind
    // write (their writes stayed in the closure set); invalidated ones
    // are dropped no-ops.
    if (entry != nullptr && entry->valid) out->push_back(ShipEntry(*entry));
  }
  out->push_back(OrderedAction{WireStamp(pos), target->action});
  stats_.closure_size.Add(static_cast<int64_t>(out->size() - start));
}

void SerializerCore::ServeCompletion(const CompletionBody& completion,
                                     SeqNum pos) {
  SubmitWork(cost_.install_us, []() {});
  if (completion.out_of_order) audit_excluded_.insert(pos);
  CompleteAt(pos, completion.digest, completion.written);
}

void SerializerCore::CompleteAt(SeqNum pos, ResultDigest digest,
                                std::vector<Object> written) {
  const SeqNum frontier = queue_.begin_pos();
  queue_.Complete(pos, digest, std::move(written),
                  [this](const ServerQueue::Entry& entry) {
                    InstallCommitted(entry);
                  });
  if (queue_.begin_pos() != frontier) OnFrontierAdvanced();
}

bool SerializerCore::CompleteInvalidHead() {
  const ServerQueue::Entry* head = queue_.Find(queue_.begin_pos());
  if (head == nullptr || head->valid) return false;
  CompleteAt(head->pos, 0, {});
  return true;
}

void SerializerCore::InstallCommitted(const ServerQueue::Entry& entry) {
  state_.ApplyObjects(entry.stable_written);
  if (audit_excluded_.count(entry.pos) == 0) {
    committed_digests_[WireStamp(entry.pos)] = entry.stable_digest;
  }
  ++stats_.actions_committed;
  OnInstalled(entry);
}

SerializerCore::Outgoing SerializerCore::DeliverActions(
    NodeId dst, std::vector<OrderedAction> batch) {
  auto body = std::make_shared<DeliverActionsBody>();
  body->actions = std::move(batch);
  return Outgoing::Of(dst, std::move(body));
}

void SerializerCore::SendAfter(Outgoing out, Micros cpu) {
  SubmitWork(cpu, [this, out = std::move(out)]() { SendNow(out); });
}

void SerializerCore::SendAllAfter(std::vector<Outgoing> batch, Micros cpu) {
  SubmitWork(cpu, [this, batch = std::move(batch)]() {
    for (const Outgoing& out : batch) SendNow(out);
  });
}

bool SerializerCore::ResetClientSession(ClientId client) {
  const ClientTable::Slot slot = clients_.SlotOf(client);
  if (slot == ClientTable::kNoSlot) return false;
  // A transfer still pacing out belongs to the dead incarnation: its
  // remaining chunks would land on the new channel incarnation, and their
  // final chunk would end the new catch-up with the already-sent chunks'
  // objects missing. The tail it captured was never marked sent.
  catchups_.erase(std::remove_if(catchups_.begin(), catchups_.end(),
                                 [slot](const PendingCatchup& pc) {
                                   return pc.slot == slot;
                                 }),
                  catchups_.end());
  // The catch-up supersedes queued pushes.
  clients_.ClearPending(slot);
  if (ReliableChannel* channel = reliable_channel()) {
    channel->ResetPeerSend(clients_.node(slot));
  }
  ++stats_.rejoins;
  return true;
}

int64_t SerializerCore::ObjectsPerChunk() const {
  return std::max<int64_t>(1, options_.snapshot_chunk_objects);
}

void SerializerCore::ServeSnapshot(const SnapshotRequestBody& request,
                                   NodeId src) {
  const ClientTable::Slot slot = clients_.SlotOf(request.client);
  if (slot == ClientTable::kNoSlot) {
    SendNack(src, request.client, kSyncModeRejoin);
    return;
  }
  std::vector<std::shared_ptr<SnapshotChunkBody>> bodies =
      ChunkObjects<SnapshotChunkBody>(state_, state_.ObjectIds(),
                                      ObjectsPerChunk(),
                                      WireStamp(queue_.begin_pos() - 1));
  // The live tail rides the final chunk; the included positions are
  // marked sent only when that chunk actually enters the send path.
  std::vector<SeqNum> tail_positions;
  CollectTail(&bodies.back()->tail, &tail_positions);
  std::vector<Outgoing> chunks =
      Seal(clients_.node(slot), std::move(bodies));
  const auto total = static_cast<int64_t>(chunks.size());
  stats_.snapshot_chunks += total;
  const Micros cpu =
      cost_.serialize_us * static_cast<Micros>(total) + cost_.install_us;
  DispatchCatchup(slot, request.client, std::move(chunks),
                  std::move(tail_positions), cpu);
}

template <typename Body>
std::vector<SerializerCore::Outgoing> SerializerCore::Seal(
    NodeId dst, std::vector<std::shared_ptr<Body>> bodies) {
  std::vector<Outgoing> chunks;
  chunks.reserve(bodies.size());
  for (std::shared_ptr<Body>& body : bodies) {
    chunks.push_back(Outgoing::Of(dst, std::move(body)));
  }
  return chunks;
}

void SerializerCore::CollectTail(std::vector<OrderedAction>* tail,
                                 std::vector<SeqNum>* positions) {
  // Everything submitted but not yet committed, in ShipEntry form —
  // exactly the substitution rule closure replies apply.
  const size_t span =
      static_cast<size_t>(queue_.end_pos() - queue_.begin_pos());
  tail->reserve(tail->size() + span);
  positions->reserve(positions->size() + span);
  for (SeqNum pos = queue_.begin_pos(); pos < queue_.end_pos(); ++pos) {
    const ServerQueue::Entry* entry = queue_.Find(pos);
    if (entry == nullptr || !entry->valid) continue;
    if (!entry->completed && WithholdFromTail(pos)) continue;
    positions->push_back(pos);
    tail->push_back(ShipEntry(*entry));
  }
}

void SerializerCore::MarkTailSent(const std::vector<SeqNum>& positions,
                                  ClientId client) {
  for (const SeqNum pos : positions) {
    // Positions committed (and GC'd) since capture no longer need a mark.
    ServerQueue::Entry* entry = queue_.Find(pos);
    if (entry != nullptr) entry->sent.insert(client);
  }
}

void SerializerCore::DispatchCatchup(ClientTable::Slot slot, ClientId client,
                                     std::vector<Outgoing> chunks,
                                     std::vector<SeqNum> tail_positions,
                                     Micros cpu) {
  PendingCatchup pc;
  pc.slot = slot;
  pc.client = client;
  pc.chunks = std::move(chunks);
  pc.tail_positions = std::move(tail_positions);
  const auto count = static_cast<int64_t>(pc.chunks.size());
  if (count <= kCatchupChunksPerTick && catchups_.empty()) {
    // Fits one tick's budget and nothing is pacing: the whole transfer
    // ships in the request's CPU slot. The per-node CPU queue is FIFO, so
    // every flush submitted after this point lands on the wire after the
    // final chunk — no flush suppression needed.
    stats_.sync.max_chunks_per_tick =
        std::max(stats_.sync.max_chunks_per_tick, count);
    SubmitWork(cpu, [this, pc = std::move(pc)]() mutable {
      SendChunks(&pc, pc.chunks.size());
    });
    return;
  }
  catchups_.push_back(std::move(pc));  // seve-lint: allow(hot-vector-realloc): one entry per crash/rejoin, cold
  SubmitWork(cpu, [this]() {
    // The first batch rides the request's CPU slot unless the pacer is
    // already mid-flight (then the next tick picks this transfer up,
    // keeping the per-tick total bounded).
    if (!catchup_timer_armed_) PumpCatchups();
  });
}

void SerializerCore::SendChunks(PendingCatchup* pc, size_t until) {
  while (pc->next < until) {
    if (pc->next + 1 == pc->chunks.size()) {
      MarkTailSent(pc->tail_positions, pc->client);
    }
    SendNow(pc->chunks[pc->next]);
    ++pc->next;
  }
}

void SerializerCore::PumpCatchups() {
  if (catchups_.empty()) return;
  int64_t batch = 0;
  size_t w = 0;
  for (size_t i = 0; i < catchups_.size(); ++i) {
    PendingCatchup& pc = catchups_[i];
    const size_t budget = static_cast<size_t>(kCatchupChunksPerTick - batch);
    const size_t until = std::min(pc.chunks.size(), pc.next + budget);
    batch += static_cast<int64_t>(until - pc.next);
    SendChunks(&pc, until);
    if (pc.next < pc.chunks.size()) {
      if (w != i) catchups_[w] = std::move(pc);
      ++w;
    } else {
      // Transfer complete: lift the flush suppression and revisit the
      // slot on the next push cycle. The flush's send closure is CPU-
      // queued, so it lands on the wire after the final chunk above.
      clients_.MarkDirty(pc.slot);
    }
  }
  catchups_.resize(w);
  stats_.sync.max_chunks_per_tick =
      std::max(stats_.sync.max_chunks_per_tick, batch);
  if (!catchups_.empty() && !catchup_timer_armed_) {
    catchup_timer_armed_ = true;
    loop()->After(options_.tick_us, [this]() {
      catchup_timer_armed_ = false;
      PumpCatchups();
    });
  }
}

void SerializerCore::DrainCatchups() {
  // Ships everything now, bypassing the pacer. Deliberately not folded
  // into max_chunks_per_tick — that counter proves the paced steady-state
  // bound, not the teardown flush.
  for (PendingCatchup& pc : catchups_) {
    SendChunks(&pc, pc.chunks.size());
    clients_.MarkDirty(pc.slot);
  }
  catchups_.clear();
}

bool SerializerCore::InCatchup(ClientTable::Slot slot) const {
  for (const PendingCatchup& pc : catchups_) {
    if (pc.slot == slot && pc.next < pc.chunks.size()) return true;
  }
  return false;
}

void SerializerCore::SendNack(NodeId dst, ClientId client, uint8_t mode) {
  // A catch-up request from an unknown client must not be dropped
  // silently: the NACK (plus the client-side retry timer) makes the race
  // against late registration deterministic and recoverable.
  ++stats_.sync.nacks;
  auto body = std::make_shared<SyncNackBody>();
  body->client = client;
  body->mode = mode;
  SendAfter(Outgoing::Of(dst, std::move(body)), cost_.serialize_us);
}

int64_t SerializerCore::FullSnapshotBytesEstimate() const {
  const std::vector<ObjectId> ids = state_.ObjectIds();
  int64_t object_bytes = 0;
  for (const ObjectId id : ids) {
    const Object* obj = state_.Find(id);
    if (obj != nullptr) object_bytes += obj->WireSize();
  }
  return object_bytes + SnapshotChunkBody::kHeaderBytes *
                            ChunkCount(ids.size(), ObjectsPerChunk());
}

void SerializerCore::RequestIbf(NodeId dst, ClientId client, uint8_t mode,
                                int64_t estimate) {
  sync::SyncSizing sizing;
  sizing.max_cells = options_.sync_max_cells;
  const int64_t cells = sync::CellsFor(estimate, sizing);
  stats_.sync.ibf_cells += cells;
  auto reply = std::make_shared<SyncIBFRequestBody>();
  reply->client = client;
  reply->mode = mode;
  reply->cells = cells;
  SendAfter(Outgoing::Of(dst, std::move(reply)), cost_.serialize_us);
}

void SerializerCore::ServeSyncRequest(const SyncRequestBody& request,
                                      NodeId src) {
  const ClientTable::Slot slot = clients_.SlotOf(request.client);
  if (slot == ClientTable::kNoSlot) {
    SendNack(src, request.client, request.mode);
    return;
  }
  ++stats_.sync.sync_rounds;
  stats_.sync.strata_bytes += request.strata.WireBytes();

  const int64_t est = sync::BuildStrata(state_).Estimate(request.strata);
  if (est != 0) {
    RequestIbf(clients_.node(slot), request.client, request.mode, est);
  } else if (request.mode == kSyncModeRejoin) {
    // Replica already matches ζS, but a rejoin still needs the live tail
    // and the end-of-catchup signal.
    ++stats_.sync.delta_rejoins;
    stats_.sync.full_bytes_estimate += FullSnapshotBytesEstimate();
    SendDelta(slot, request.client, request.mode, {}, {});
  } else {
    ++stats_.sync.ae_rounds;  // an anti-entropy round is simply done
  }
}

void SerializerCore::ServeSyncIBF(const SyncIBFBody& body, NodeId src) {
  const ClientTable::Slot slot = clients_.SlotOf(body.client);
  if (slot == ClientTable::kNoSlot) {
    SendNack(src, body.client, body.mode);
    return;
  }
  const sync::DeltaPlan plan = sync::PlanDelta(state_, body.ibf);
  if (!plan.ok) {
    ++stats_.sync.decode_failures;
    if (body.mode == kSyncModeRejoin) {
      // Deterministic fallback: the filter failed to peel, so answer as
      // if the client had asked for the full snapshot. The client treats
      // any SnapshotChunk during a delta rejoin as this signal.
      ++stats_.sync.fallbacks;
      SnapshotRequestBody full;
      full.client = body.client;
      ServeSnapshot(full, src);
    }
    // A failed anti-entropy round just waits for the next period.
    return;
  }
  if (body.mode == kSyncModeRejoin) {
    ++stats_.sync.delta_rejoins;
    stats_.sync.full_bytes_estimate += FullSnapshotBytesEstimate();
  } else {
    ++stats_.sync.ae_rounds;
  }
  SendDelta(slot, body.client, body.mode, plan.ship, plan.remove);
}

void SerializerCore::SendDelta(ClientTable::Slot slot, ClientId client,
                               uint8_t mode,
                               const std::vector<ObjectId>& ship,
                               const std::vector<ObjectId>& remove) {
  std::vector<std::shared_ptr<SyncDeltaBody>> bodies =
      ChunkObjects<SyncDeltaBody>(state_, ship, ObjectsPerChunk(),
                                  WireStamp(queue_.begin_pos() - 1));
  for (const std::shared_ptr<SyncDeltaBody>& body : bodies) {
    body->client = client;
    body->mode = mode;
  }
  bodies.back()->removed = remove;
  std::vector<SeqNum> tail_positions;
  if (mode == kSyncModeRejoin) {
    CollectTail(&bodies.back()->tail, &tail_positions);
  }
  std::vector<Outgoing> chunks = Seal(clients_.node(slot), std::move(bodies));
  for (const Outgoing& c : chunks) stats_.sync.delta_bytes += c.bytes;
  stats_.sync.objects_shipped += static_cast<int64_t>(ship.size());
  stats_.sync.objects_removed += static_cast<int64_t>(remove.size());

  const Micros cpu = cost_.serialize_us *
                         static_cast<Micros>(chunks.size()) +
                     cost_.install_us;
  if (mode == kSyncModeRejoin) {
    DispatchCatchup(slot, client, std::move(chunks),
                    std::move(tail_positions), cpu);
    return;
  }
  // Anti-entropy repairs are small by construction; they bypass the
  // catch-up pacer (and its flush suppression, which only the rejoin
  // path needs — a live client applies pushes and AE deltas alike).
  SendAllAfter(std::move(chunks), cpu);
}

}  // namespace seve
