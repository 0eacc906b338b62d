#ifndef SEVE_SYNC_RECONCILE_H_
#define SEVE_SYNC_RECONCILE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "store/world_state.h"
#include "sync/ibf.h"
#include "sync/strata.h"

namespace seve::sync {

/// Default IBF sizing: the cell floor and the safety factor over the
/// strata estimate.
constexpr int64_t kSyncMinCells = 64;
constexpr double kSyncAlpha = 4.0;

/// Filter-sizing policy for the reconciliation handshake. The server
/// asks the rejoining client for an IBF of CellsFor(estimate) cells.
/// 3 hashes need ~1.3d cells to peel w.h.p., but the strata estimate
/// itself can run ~2x low (the first stratum that fails to peel rounds
/// the scale factor down a power of two), so alpha hedges both at once;
/// below ~3 the mid-size diffs routinely lose the decode and fall back
/// to a full snapshot. max_cells caps the filter — a deliberately tiny
/// cap is how tests force the decode-failure fallback arm
/// deterministically.
struct SyncSizing {
  int64_t min_cells = kSyncMinCells;
  double alpha = kSyncAlpha;
  int64_t max_cells = 0;  // 0 = uncapped
};

int64_t CellsFor(int64_t estimate, const SyncSizing& sizing);

/// Materializes the (id, content-hash) summary of a state. O(n) ids but
/// zero rehashing: WorldState keeps per-object hashes incrementally.
Summary SummaryOf(const WorldState& state);

StrataEstimator BuildStrata(const Summary& summary);
StrataEstimator BuildStrata(const WorldState& state);
Ibf BuildIbf(const Summary& summary, int64_t cells);
Ibf BuildIbf(const WorldState& state, int64_t cells);

/// Server-side decode of a rejoining client's filter against the local
/// authoritative state. `ship` are ids the remote lacks or holds at a
/// stale version (all present locally); `remove` are ids the remote
/// holds that no longer exist here. Both ascending — deterministic
/// regardless of hash-table iteration order.
struct DeltaPlan {
  bool ok = false;
  std::vector<ObjectId> ship;
  std::vector<ObjectId> remove;
};

DeltaPlan PlanDelta(const WorldState& local, const Ibf& remote);

/// Generic variant for non-state summaries (the shard ownership map):
/// returns the ascending union of keys that differ on either side.
struct KeyDiffPlan {
  bool ok = false;
  std::vector<uint64_t> keys;
};

KeyDiffPlan PlanKeyDiff(const Summary& local, const Ibf& remote);

}  // namespace seve::sync

#endif  // SEVE_SYNC_RECONCILE_H_
