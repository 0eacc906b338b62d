#include "sim/report.h"

#include <cstdio>

namespace seve {

namespace {

template <typename S, size_t N>
bool AnyCounter(const CounterField<S> (&fields)[N], const S& s) {
  for (const CounterField<S>& f : fields) {
    if (s.*f.member != 0) return true;
  }
  return false;
}

/// Appends "\n  <label> key=value ..." over one counter table.
template <typename S, size_t N>
void AppendCounters(std::string* out, const char* label,
                    const CounterField<S> (&fields)[N], const S& s) {
  *out += "\n  ";
  *out += label;
  for (const CounterField<S>& f : fields) {
    *out += ' ';
    *out += f.key;
    *out += '=';
    *out += std::to_string(s.*f.member);
  }
}

}  // namespace

std::string RunReport::Summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%s clients=%d\n"
      "  response_ms: mean=%.1f p50=%.1f p95=%.1f max=%.1f (n=%lld)\n"
      "  drops=%.2f%% visible_avatars=%.2f per_client_kb=%.1f\n"
      "  consistency: %s\n"
      "  end_time=%.1fs events=%zu",
      ArchitectureName(architecture), num_clients, MeanResponseMs(),
      static_cast<double>(response_us.Median()) / 1000.0, P95ResponseMs(),
      static_cast<double>(response_us.max()) / 1000.0,
      static_cast<long long>(response_us.count()), drop_rate * 100.0,
      avg_visible_avatars, per_client_kb, consistency.ToString().c_str(),
      static_cast<double>(end_time) / 1e6, events_run);
  std::string out = buf;
  AppendCounters(&out, "server:", kProtocolFields, server_stats);
  AppendCounters(&out, "client:", kProtocolFields, client_stats);
  ChannelStats channel = client_stats.channel;
  channel.Merge(server_stats.channel);
  if (AnyCounter(kChannelFields, channel)) {
    AppendCounters(&out, "channel:", kChannelFields, channel);
  }
  const FanoutCounters& fan = server_stats.fanout;
  if (AnyCounter(kFanoutFields, fan)) {
    AppendCounters(&out, "fanout:", kFanoutFields, fan);
    std::snprintf(buf, sizeof(buf), " dirty_scan_ratio=%.3f",
                  fan.DirtyScanRatio(num_clients));
    out += buf;
  }
  SyncCounters sync = server_stats.sync;  // retries/repairs are client-side
  sync.Merge(client_stats.sync);
  if (AnyCounter(kSyncFields, sync)) {
    AppendCounters(&out, "sync:", kSyncFields, sync);
  }
  if (!shard_counters.empty()) {
    ShardCounters total;
    for (const ShardCounters& s : shard_counters) total.Merge(s);
    std::snprintf(buf, sizeof(buf), "shards: n=%zu", shard_counters.size());
    AppendCounters(&out, buf, kShardFields, total);
    std::snprintf(buf, sizeof(buf),
                  " fast_path_fraction=%.3f\n"
                  "  shard load: imbalance=%.2f->%.2f (windows=%zu) "
                  "migration_moves_planned=%lld",
                  total.FastPathFraction(), load_imbalance_first,
                  load_imbalance_last, shard_imbalance_windows.size(),
                  static_cast<long long>(migration_moves_planned));
    out += buf;
  }
  if (!wire_audit.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "\n  wire: verify_failures=%lld unencodable=%lld "
                  "declared=%lldB encoded=%lldB",
                  static_cast<long long>(wire_verify_failures),
                  static_cast<long long>(wire_audit.TotalUnencodable()),
                  static_cast<long long>(wire_audit.TotalDeclaredBytes()),
                  static_cast<long long>(wire_audit.TotalEncodedBytes()));
    out += buf;
  }
  return out;
}

}  // namespace seve
