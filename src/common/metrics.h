#ifndef SEVE_COMMON_METRICS_H_
#define SEVE_COMMON_METRICS_H_

#include <cstddef>
#include <cstdint>

#include "common/histogram.h"

namespace seve {

/// How one scalar counter folds across nodes or shards: flows add up,
/// peaks keep the worst single contributor.
enum class MergeRule : uint8_t { kSum, kMax };

/// One scalar counter of `S`: its BENCH json key, its member and its
/// merge rule. Every counter family lists its fields once, in a constexpr
/// table beside the struct and in struct order (which is digest order).
/// Merge, the sweep digest, RunReport::Summary and the BENCH writers all
/// loop over that table.
template <typename S>
struct CounterField {
  const char* key;
  int64_t S::*member;
  MergeRule rule = MergeRule::kSum;
};

/// Folds every table field of `from` into `into` by its rule.
template <typename S, size_t N>
void MergeFields(const CounterField<S> (&fields)[N], S* into,
                 const S& from) {
  for (const CounterField<S>& f : fields) {
    int64_t& mine = into->*f.member;
    const int64_t theirs = from.*f.member;
    if (f.rule == MergeRule::kSum) {
      mine += theirs;
    } else if (theirs > mine) {
      mine = theirs;
    }
  }
}

/// A table covers its struct when it names every int64 member exactly
/// once (`other_bytes` sizes the struct's remaining members), so a
/// counter added without a table entry fails this check.
template <typename S, size_t N>
constexpr bool CoversScalars(const CounterField<S> (&fields)[N],
                             size_t other_bytes = 0) {
  for (size_t i = 0; i < N; ++i) {
    for (size_t k = i + 1; k < N; ++k) {
      if (fields[i].member == fields[k].member) return false;
    }
  }
  return sizeof(S) == N * sizeof(int64_t) + other_bytes;
}

/// Byte/message accounting for one traffic direction.
struct TrafficCounter {
  int64_t messages = 0;
  int64_t bytes = 0;

  void Record(int64_t message_bytes) {
    ++messages;
    bytes += message_bytes;
  }
  void Merge(const TrafficCounter& other) {
    messages += other.messages;
    bytes += other.bytes;
  }
};

/// Traffic seen by one node (or aggregated over a set of nodes).
struct TrafficStats {
  TrafficCounter sent;
  TrafficCounter received;

  int64_t total_bytes() const { return sent.bytes + received.bytes; }
  void Merge(const TrafficStats& other) {
    sent.Merge(other.sent);
    received.Merge(other.received);
  }
};

/// Reliable-channel counters (net/channel.h): retransmission and
/// duplicate-suppression activity on one node, or aggregated over a set.
struct ChannelStats {
  int64_t data_frames = 0;     // first transmissions of wrapped messages
  int64_t retransmits = 0;     // frames sent again after an rtx timeout
  int64_t rtx_timeouts = 0;    // retransmission timer firings
  int64_t rtx_abandoned = 0;   // frames given up after max_retries
  int64_t dup_drops = 0;       // duplicate frames suppressed at receive
  int64_t out_of_order = 0;    // frames buffered past a sequence gap
  int64_t stale_drops = 0;     // frames from a pre-rejoin incarnation
  int64_t acks_sent = 0;       // standalone ack frames
  int64_t ack_bytes = 0;       // bytes spent on standalone acks

  void Merge(const ChannelStats& other);
};

inline constexpr CounterField<ChannelStats> kChannelFields[] = {
    {"channel_data_frames", &ChannelStats::data_frames},
    {"channel_retransmits", &ChannelStats::retransmits},
    {"channel_rtx_timeouts", &ChannelStats::rtx_timeouts},
    {"channel_rtx_abandoned", &ChannelStats::rtx_abandoned},
    {"channel_dup_drops", &ChannelStats::dup_drops},
    {"channel_out_of_order", &ChannelStats::out_of_order},
    {"channel_stale_drops", &ChannelStats::stale_drops},
    {"channel_acks_sent", &ChannelStats::acks_sent},
    {"channel_ack_bytes", &ChannelStats::ack_bytes},
};
static_assert(CoversScalars(kChannelFields));

/// Fan-out path counters (server push pipeline): how much work the
/// dirty-list flush and coalesced push batching actually did. All zero on
/// clients and on architectures without the proactive push.
struct FanoutCounters {
  int64_t push_batches = 0;       // coalesced DeliverActions pushes sent
  int64_t coalesced_pushes = 0;   // ready positions shipped beyond the
                                  // first of their batch (saved messages)
  int64_t superseded_moves = 0;   // queued moves replaced by a newer one
  int64_t dirty_slots_flushed = 0;// dirty client slots examined by flushes
  int64_t flush_cycles = 0;       // push cycles that ran
  int64_t route_alloc = 0;        // routing-path vector growths (scratch +
                                  // pending lists); 0 in steady state

  /// Dirty slots examined per push cycle as a share of the `clients`
  /// registered: 1.0 means every cycle visited every client.
  double DirtyScanRatio(int64_t clients) const {
    const int64_t full = clients * flush_cycles;
    return full == 0 ? 0.0
                     : static_cast<double>(dirty_slots_flushed) /
                           static_cast<double>(full);
  }

  void Merge(const FanoutCounters& other);
};

inline constexpr CounterField<FanoutCounters> kFanoutFields[] = {
    {"push_batches", &FanoutCounters::push_batches},
    {"coalesced_pushes", &FanoutCounters::coalesced_pushes},
    {"superseded_moves", &FanoutCounters::superseded_moves},
    {"dirty_slots_flushed", &FanoutCounters::dirty_slots_flushed},
    {"flush_cycles", &FanoutCounters::flush_cycles},
    {"route_alloc", &FanoutCounters::route_alloc},
};
static_assert(CoversScalars(kFanoutFields));

/// Set-reconciliation counters (src/sync + the delta-sync handshake in
/// the protocol/shard servers): how much each rejoin or anti-entropy
/// round shipped, and what the legacy full snapshot would have cost.
struct SyncCounters {
  int64_t sync_rounds = 0;        // reconciliation handshakes served
  int64_t strata_bytes = 0;       // estimator bytes received
  int64_t ibf_cells = 0;          // filter cells requested across rounds
  int64_t decode_failures = 0;    // filters that failed to peel
  int64_t fallbacks = 0;          // rejoins that fell back to full snapshot
  int64_t delta_rejoins = 0;      // rejoins served O(diff)
  int64_t objects_shipped = 0;    // objects sent in SyncDelta payloads
  int64_t objects_removed = 0;    // removal ids sent in SyncDelta payloads
  int64_t delta_bytes = 0;        // SyncDelta wire bytes sent
  int64_t full_bytes_estimate = 0;// what full snapshots of the same rounds
                                  // would have cost (bytes-saved baseline)
  int64_t ae_rounds = 0;          // anti-entropy rounds completed
  int64_t ae_objects_repaired = 0;// stale objects refreshed by AE rounds
  int64_t owner_repairs = 0;      // stale shard-ownership entries repaired
  int64_t nacks = 0;              // catch-up requests NACKed (unknown client)
  int64_t snapshot_retries = 0;   // client catch-up re-requests after timeout
  int64_t max_chunks_per_tick = 0;// largest catch-up batch handed to the
                                  // send path in one tick (pacing proof)

  void Merge(const SyncCounters& other);
};

inline constexpr CounterField<SyncCounters> kSyncFields[] = {
    {"sync_rounds", &SyncCounters::sync_rounds},
    {"sync_strata_bytes", &SyncCounters::strata_bytes},
    {"sync_ibf_cells", &SyncCounters::ibf_cells},
    {"sync_decode_failures", &SyncCounters::decode_failures},
    {"sync_fallbacks", &SyncCounters::fallbacks},
    {"delta_rejoins", &SyncCounters::delta_rejoins},
    {"sync_objects_shipped", &SyncCounters::objects_shipped},
    {"sync_objects_removed", &SyncCounters::objects_removed},
    {"sync_delta_bytes", &SyncCounters::delta_bytes},
    {"sync_full_bytes_estimate", &SyncCounters::full_bytes_estimate},
    {"ae_rounds", &SyncCounters::ae_rounds},
    {"ae_objects_repaired", &SyncCounters::ae_objects_repaired},
    {"owner_repairs", &SyncCounters::owner_repairs},
    {"sync_nacks", &SyncCounters::nacks},
    {"snapshot_retries", &SyncCounters::snapshot_retries},
    {"max_chunks_per_tick", &SyncCounters::max_chunks_per_tick,
     MergeRule::kMax},
};
static_assert(CoversScalars(kSyncFields));

/// Protocol-level counters accumulated during a run.
struct ProtocolStats {
  int64_t actions_submitted = 0;
  int64_t actions_committed = 0;
  int64_t actions_dropped = 0;       // by the Information Bound Model
  int64_t actions_reconciled = 0;    // optimistic/stable divergences repaired
  int64_t actions_evaluated = 0;     // total action executions at clients
  int64_t out_of_order_evals = 0;    // transitive inclusions applied late:
                                     // inputs newer than serial order, so
                                     // the result is transient-only
  int64_t blind_writes = 0;          // W(S, v) actions synthesized by server
  int64_t closure_visits = 0;        // queue entries inspected by Algorithm 6
  int64_t rejoins = 0;               // Fail()->Rejoin() recoveries completed
  int64_t snapshot_chunks = 0;       // catch-up chunks sent (server side)
  Histogram closure_size;            // |A| per reply / per push batch
  Histogram response_time_us;        // submit -> stable-result latency
  /// Transport-layer counters; protocols leave this empty, the runner
  /// folds each node's reliable-channel stats in after the run.
  ChannelStats channel;
  /// Push fan-out pipeline counters (servers only).
  FanoutCounters fanout;
  /// Delta-sync / anti-entropy counters (zero with delta_sync off).
  SyncCounters sync;

  double DropRate() const {
    return actions_submitted == 0
               ? 0.0
               : static_cast<double>(actions_dropped) /
                     static_cast<double>(actions_submitted);
  }

  void Merge(const ProtocolStats& other);
};

/// The scalar counters only: the histograms and the nested families have
/// their own Merge and their own tables.
inline constexpr CounterField<ProtocolStats> kProtocolFields[] = {
    {"actions_submitted", &ProtocolStats::actions_submitted},
    {"actions_committed", &ProtocolStats::actions_committed},
    {"actions_dropped", &ProtocolStats::actions_dropped},
    {"actions_reconciled", &ProtocolStats::actions_reconciled},
    {"actions_evaluated", &ProtocolStats::actions_evaluated},
    {"out_of_order_evals", &ProtocolStats::out_of_order_evals},
    {"blind_writes", &ProtocolStats::blind_writes},
    {"closure_visits", &ProtocolStats::closure_visits},
    {"rejoins", &ProtocolStats::rejoins},
    {"snapshot_chunks", &ProtocolStats::snapshot_chunks},
};
static_assert(CoversScalars(kProtocolFields,
                            2 * sizeof(Histogram) + sizeof(ChannelStats) +
                                sizeof(FanoutCounters) +
                                sizeof(SyncCounters)));

}  // namespace seve

#endif  // SEVE_COMMON_METRICS_H_
