#ifndef SEVE_PROTOCOL_SEVE_SERVER_H_
#define SEVE_PROTOCOL_SEVE_SERVER_H_

#include <cstdint>
#include <vector>

#include "action/action.h"
#include "common/flat_map.h"
#include "protocol/serializer_core.h"
#include "spatial/grid_index.h"

namespace seve {

/// Server side of SEVE: the Incomplete World Model (Algorithms 5 and 6)
/// with the First Bound Model's proactive push (Section III-D) and the
/// Information Bound Model's chain breaking (Algorithm 7).
///
/// The server executes no game logic. Per action it pays:
///   * serialization (timestamp + enqueue),
///   * an Equation-1 interest test per nearby client (via a spatial index
///     over client positions),
///   * a transitive-closure walk proportional to the conflict chain
///     (Algorithm 6, via the server queue's writer index),
/// which is why its capacity is orders of magnitude beyond the Central
/// baseline's (Section V-B: ~3500 clients on one server).
///
/// Client bookkeeping is an SoA ClientTable (DESIGN.md §13): dense slots
/// in registration order, with the push flush driven by an epoch-stamped
/// dirty list so a cycle costs O(clients with pending work), not
/// O(registered clients). Closure replies, completion/install, the send
/// path and crash recovery are the shared SerializerCore's; this class
/// adds routing and the push cycle, Algorithm 7's tick, move
/// supersession and commit notices.
class SeveServer : public SerializerCore {
 public:
  SeveServer(NodeId node, EventLoop* loop, WorldState initial,
             const CostModel& cost, const InterestModel& interest,
             const SeveOptions& options, const AABB& world_bounds);

  /// Registers a client with its initial interest profile (avatar position
  /// and maximum radius of influence rC).
  void RegisterClient(ClientId client, NodeId node,
                      const InterestProfile& profile);

  /// Starts the periodic machinery (tick processing and push cycles).
  void Start();
  /// Stops scheduling further cycles once the current queue drains.
  void Stop() { running_ = false; }

  /// Drain aid for quiescing a run: decides validity for everything still
  /// pending, then pushes every undelivered relevant action to every
  /// client immediately (bypassing the push cadence).
  void FlushAll();

 protected:
  void OnMessage(const Message& msg) override;

 private:
  void HandleSubmit(ClientId from, ActionPtr action,
                    const ObjectSet& resync);
  void OnTick();  // Algorithm 7: validity decisions for the last tick
  void OnPushCycle();  // First Bound: proactive push every ω·RTT

  /// Per-slot half of the push cycle: partitions the slot's pending list
  /// against the validity frontier, closes over the ready positions and
  /// ships them as one coalesced DeliverActions batch. Re-stamps the slot
  /// dirty when positions stay queued (preserving the dirty-list
  /// invariant).
  void FlushSlot(ClientTable::Slot slot);

  /// Algorithm 6 for one target action (the core's WalkClosure +
  /// AssembleClosure): appends the ordered batch (blind write first) to
  /// *out. Appends nothing, and charges nothing, when the target is gone,
  /// invalid or already sent to `client`. `resync` (origin replies only)
  /// lists objects the client flagged as non-replayable.
  void AppendClosure(ClientId client, SeqNum pos, Micros* cpu_cost,
                     std::vector<OrderedAction>* out,
                     const ObjectSet& resync = {});

  /// Routes a new action to interested clients' pending-push lists
  /// (Equation 1 over the client spatial index, via the reusable
  /// route_scratch_ buffer — zero-alloc in steady state). Returns
  /// simulated cost.
  Micros RouteToClients(SeqNum pos, const Action& action);

  /// Updatable-queue supersession (options.move_supersession): the
  /// origin's still-queued, never-sent predecessor move at `prev` is
  /// invalidated and the origin is told through the Information Bound
  /// drop path (DropNotice + authoritative refresh of its reads).
  void SupersedeMove(SeqNum prev);

  /// An Algorithm 7 drop (or a superseded move) awaiting its notice.
  struct Drop {
    SeqNum pos;
    ActionPtr action;
  };
  /// Sends `drop`'s origin its DropNotice with an authoritative refresh
  /// of the dropped action's reads. Runs inside the deferred send, so
  /// the refresh is ζS as it stands when the notice leaves.
  void SendDropNotice(const Drop& drop);

  void UpdateClientProfile(ClientId client, const InterestProfile& profile);
  void SendCommitNotices();

  GridIndex client_index_;  // keyed by client slot
  double max_client_radius_ = 0.0;
  SeqNum validity_frontier_ = 0;  // positions below are drop-decided
  SeqNum tick_scan_pos_ = 0;
  // Resync sets attached to submissions whose reply waits for the
  // validity tick (dropping mode); consumed by OnTick.
  FlatMap<SeqNum, ObjectSet> pending_resync_;
  bool running_ = false;
  // Reusable hot-path scratch (steady-state zero-alloc; route_scratch_
  // growth after Start is charged to fanout.route_alloc).
  std::vector<uint64_t> route_scratch_;           // spatial query hits
  std::vector<ClientTable::Slot> dirty_scratch_;  // flush working set
  std::vector<SeqNum> ready_scratch_;             // per-slot partition
};

}  // namespace seve

#endif  // SEVE_PROTOCOL_SEVE_SERVER_H_
