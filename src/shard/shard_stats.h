#ifndef SEVE_SHARD_SHARD_STATS_H_
#define SEVE_SHARD_SHARD_STATS_H_

#include <cstdint>

#include "common/metrics.h"

namespace seve {

/// Per-shard counters of the sharded serialization tier (DESIGN.md §12).
/// Kept in a standalone header so the sim report layer can embed them
/// without pulling in the shard server.
struct ShardCounters {
  int64_t fast_path = 0;      // single-shard closures replied in 1 RTT
  int64_t escalated = 0;      // cross-shard closures escalated to 2-phase
  int64_t tokens_served = 0;  // prepare-tokens issued to peer shards
  int64_t commits = 0;        // escalations resolved (reply + commits sent)
  int64_t aborts = 0;         // escalations cancelled by crash fencing
  int64_t stale_tokens = 0;   // tokens fenced off (epoch bump / abort race)
  // Load observability (PR 8): raw submissions accepted into this shard's
  // queue and the peak uncommitted queue depth over the run — the
  // numerator/denominator material for the max/mean load-imbalance metric.
  int64_t submits = 0;
  int64_t queue_depth_peak = 0;
  // Dynamic ownership migration (DESIGN.md §14).
  int64_t migrations_out = 0;    // records handed off by this shard
  int64_t migrations_in = 0;     // records adopted by this shard
  int64_t migration_aborts = 0;  // handoffs cancelled (crash races)
  int64_t rehomed_clients = 0;   // clients re-pointed to this shard
  int64_t escalated_pushes = 0;  // coalesced push batches of escalated results
  int64_t migrations_pending = 0;  // in flight at collection time (leak check)

  void Merge(const ShardCounters& other);

  double FastPathFraction() const {
    const int64_t total = fast_path + escalated;
    return total == 0 ? 1.0
                      : static_cast<double>(fast_path) /
                            static_cast<double>(total);
  }
};

/// Fleet totals sum every counter but the queue-depth peak, which is the
/// worst single shard's.
inline constexpr CounterField<ShardCounters> kShardFields[] = {
    {"fast_path", &ShardCounters::fast_path},
    {"escalated", &ShardCounters::escalated},
    {"tokens_served", &ShardCounters::tokens_served},
    {"commits", &ShardCounters::commits},
    {"aborts", &ShardCounters::aborts},
    {"stale_tokens", &ShardCounters::stale_tokens},
    {"submits", &ShardCounters::submits},
    {"queue_depth_peak", &ShardCounters::queue_depth_peak, MergeRule::kMax},
    {"migrations_out", &ShardCounters::migrations_out},
    {"migrations_in", &ShardCounters::migrations_in},
    {"migration_aborts", &ShardCounters::migration_aborts},
    {"rehomed_clients", &ShardCounters::rehomed_clients},
    {"escalated_pushes", &ShardCounters::escalated_pushes},
    {"migrations_pending", &ShardCounters::migrations_pending},
};
static_assert(CoversScalars(kShardFields));

inline void ShardCounters::Merge(const ShardCounters& other) {
  MergeFields(kShardFields, this, other);
}

}  // namespace seve

#endif  // SEVE_SHARD_SHARD_STATS_H_
