#ifndef SEVE_PROTOCOL_OPTIONS_H_
#define SEVE_PROTOCOL_OPTIONS_H_

#include "common/types.h"

namespace seve {

/// Configuration of the SEVE protocol stack. The defaults correspond to
/// the full protocol evaluated in Section V: Incomplete World Model +
/// First Bound proactive push + Information Bound chain breaking.
struct SeveOptions {
  /// First Bound Model (Section III-D): push conflict candidates to every
  /// client each omega*RTT instead of replying only on submission.
  bool proactive_push = true;
  /// The paper's ω, 0 < ω < 1: push period as a fraction of RTT.
  double omega = 0.5;

  /// Information Bound Model (Section III-E): drop actions whose conflict
  /// chain reaches farther than `threshold` (Algorithm 7).
  bool dropping = true;
  /// Chain-breaking distance; Table I uses 1.5 x avatar visibility.
  double threshold = 45.0;

  /// Section IV-B: use the velocity-vector form of the conflict equation.
  bool velocity_culling = false;
  /// Section IV-A: respect interest-class masks (inconsequential action
  /// elimination).
  bool interest_classes = false;

  /// Failure tolerance (Section III-C): every client sends completion
  /// messages for every action it applies, not just its own.
  bool all_client_completions = false;

  /// Crash/rejoin recovery: objects per SnapshotChunk when the server
  /// streams ζS to a rejoining client. Catch-up transfers are paced at
  /// SerializerCore::kCatchupChunksPerTick chunks per tick.
  int snapshot_chunk_objects = 64;

  /// Updatable-queue optimisation: a newer MoveAction from the same
  /// origin invalidates its still-queued predecessor, provided the
  /// predecessor was never sent to any client (so nothing has to be
  /// recalled). The origin is told via the Information Bound drop path.
  /// Off by default — with it off the data path is bit-identical to the
  /// pre-supersession protocol.
  bool move_supersession = false;

  /// The simulation tick τ; Algorithm 7 runs once per tick.
  Micros tick_us = 100 * 1000;

  /// How often the server emits CommitNotice GC hints (0 = never).
  Micros commit_notice_period_us = 1000 * 1000;

  // --- Delta sync (DESIGN.md §15) -----------------------------------------

  /// Rejoin via IBF set reconciliation instead of a full snapshot: the
  /// client keeps its pre-crash stable state and the server ships only
  /// the symmetric difference plus the live tail, falling back to the
  /// full SnapshotChunk stream when the filter fails to peel. Off by
  /// default — with it off the data path is bit-identical to the
  /// full-snapshot protocol.
  bool delta_sync = false;

  /// Hard cap on IBF cells (0 = uncapped; a deliberately tiny cap forces
  /// the deterministic decode-failure fallback in tests). The floor and
  /// the safety factor over the strata estimate are sync::kSyncMinCells
  /// and sync::kSyncAlpha.
  int64_t sync_max_cells = 0;

  /// Background anti-entropy: clients run the same reconciliation
  /// exchange against their home server every period, repairing replica
  /// divergence the Incomplete World Model leaves behind by design
  /// (0 = off). Requires delta_sync.
  Micros anti_entropy_period_us = 0;

  /// Shard-pair anti-entropy: each shard reconciles its local ownership
  /// view against its ring successor every period (0 = off). Repairs the
  /// third-party staleness that ownership migration leaves behind.
  Micros shard_anti_entropy_period_us = 0;

  /// Client catch-up retry: while still rejoining after this long, the
  /// client re-sends its catch-up request (0 = never — the seed
  /// behaviour, which can strand a client whose request was dropped or
  /// whose transfer was abandoned by the reliable channel).
  /// At most SeveClient::kCatchupRetryLimit retries per rejoin.
  Micros snapshot_retry_us = 0;
};

}  // namespace seve

#endif  // SEVE_PROTOCOL_OPTIONS_H_
