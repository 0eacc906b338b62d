#ifndef SEVE_BENCH_BENCH_UTIL_H_
#define SEVE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/report.h"
#include "sim/sweep.h"

namespace seve::bench {

/// Prints the standard experiment header used by every reproduction
/// binary: what the paper's figure shows and what we regenerate.
inline void Banner(const char* title, const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Paper: %s\n", paper_claim);
  std::printf("==============================================================\n");
}

/// Returns true if the binary was invoked with --quick (CI-friendly
/// scaled-down sweep).
inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

/// Parses `--jobs N` / `--jobs=N`. Defaults to hardware concurrency.
/// Determinism guarantee: the sweep results are identical for any value.
inline int JobsArg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      return std::max(1, std::atoi(argv[i + 1]));
    }
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      return std::max(1, std::atoi(argv[i] + 7));
    }
  }
  return DefaultJobs();
}

inline void PrintRunRow(const char* label, int x, const RunReport& r) {
  std::printf(
      "%-12s x=%5d  resp_mean=%9.1f ms  p95=%9.1f ms  drops=%5.2f%%  "
      "vis=%5.2f  kb/client=%8.1f  consistent=%s\n",
      label, x, r.MeanResponseMs(), r.P95ResponseMs(), r.drop_rate * 100.0,
      r.avg_visible_avatars, r.per_client_kb,
      r.consistency.consistent() ? "yes" : "NO");
  std::fflush(stdout);
}

/// Runs the sweep across `num_jobs` workers and prints one row per job
/// in job order (a blank line between label groups), exactly as the
/// serial benches always printed. Returns the ordered results.
inline std::vector<SweepResult> RunSweepAndPrint(
    const std::vector<SweepJob>& jobs, int num_jobs) {
  const std::vector<SweepResult> results = RunSweep(jobs, num_jobs);
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (i > 0 && jobs[i].label != jobs[i - 1].label) std::printf("\n");
    PrintRunRow(jobs[i].label.c_str(), static_cast<int>(jobs[i].x),
                results[i].report);
  }
  return results;
}

namespace detail {

inline void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

inline void AppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan literal
    out->append("null");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

}  // namespace detail

/// Appends `"key": value` for every field of a counter table, after a
/// ", " unless the enclosing object has just opened. Fleet totals suffix
/// each summed key with `_total`; a max-merged peak keeps its name.
template <typename S, size_t N>
void AppendCounters(std::string* j, const CounterField<S> (&fields)[N],
                    const S& s, bool fleet_total = false) {
  for (const CounterField<S>& f : fields) {
    if (j->back() != '{') *j += ", ";
    *j += '"';
    *j += f.key;
    if (fleet_total && f.rule == MergeRule::kSum) *j += "_total";
    *j += "\": " + std::to_string(s.*f.member);
  }
}

/// Appends one BENCH row: the scenario knobs that vary, wall-clock cost,
/// determinism digest, and the virtual-time metrics every figure is drawn
/// from. Counter keys come from the field tables beside each counter
/// struct; all are emitted whether or not the run touched them, so the
/// schema is stable.
inline void AppendBenchRow(std::string* out, const SweepJob& job,
                           const SweepResult& result) {
  std::string& j = *out;
  const RunReport& r = result.report;
  j += "    {\"label\": \"";
  detail::AppendEscaped(&j, job.label);
  j += "\", \"x\": ";
  detail::AppendDouble(&j, job.x);
  j += ",\n     \"scenario\": {\"arch\": \"";
  detail::AppendEscaped(&j, ArchitectureName(job.arch));
  j += "\", \"clients\": " + std::to_string(job.scenario.num_clients);
  j += ", \"moves_per_client\": " +
       std::to_string(job.scenario.moves_per_client);
  j += ", \"walls\": " + std::to_string(job.scenario.world.num_walls);
  j += ", \"seed\": " + std::to_string(job.scenario.seed);
  j += ", \"link_kbps\": ";
  detail::AppendDouble(&j, job.scenario.link_kbps);
  j += ", \"wire_mode\": \"";
  detail::AppendEscaped(&j, WireModeName(job.scenario.wire_mode));
  j += "\", \"drop_probability\": ";
  detail::AppendDouble(&j, job.scenario.drop_probability);
  j += std::string(", \"reliable_transport\": ") +
       (job.scenario.reliable_transport ? "true" : "false");
  j += "},\n     \"wall_seconds\": ";
  detail::AppendDouble(&j, result.wall_seconds);
  {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "0x%016llx",
                  static_cast<unsigned long long>(result.digest));
    j += ", \"digest\": \"";
    j += digest;
    j += "\",\n";
  }
  j += "     \"report\": {";
  j += "\"response_count\": " + std::to_string(r.response_us.count());
  j += ", \"response_mean_ms\": ";
  detail::AppendDouble(&j, r.MeanResponseMs());
  j += ", \"response_p50_ms\": ";
  detail::AppendDouble(&j,
                       static_cast<double>(r.response_us.Median()) / 1000.0);
  j += ", \"response_p95_ms\": ";
  detail::AppendDouble(&j, r.P95ResponseMs());
  j += ", \"response_p99_ms\": ";
  detail::AppendDouble(&j,
                       static_cast<double>(r.response_us.P99()) / 1000.0);
  j += ", \"response_max_ms\": ";
  detail::AppendDouble(&j, static_cast<double>(r.response_us.max()) / 1000.0);
  j += ", \"drop_rate\": ";
  detail::AppendDouble(&j, r.drop_rate);
  j += ", \"avg_visible_avatars\": ";
  detail::AppendDouble(&j, r.avg_visible_avatars);
  j += ", \"per_client_kb\": ";
  detail::AppendDouble(&j, r.per_client_kb);
  j += ", \"server_sent_bytes\": " +
       std::to_string(r.server_traffic.sent.bytes);
  j += ", \"total_sent_bytes\": " +
       std::to_string(r.total_traffic.sent.bytes);
  j += ", \"total_messages\": " +
       std::to_string(r.total_traffic.sent.messages);
  j += std::string(", \"consistent\": ") +
       (r.consistency.consistent() ? "true" : "false");
  j += ", \"wire_verify_failures\": " +
       std::to_string(r.wire_verify_failures);
  j += ", \"end_time_us\": " + std::to_string(r.end_time);
  j += ", \"events_run\": " + std::to_string(r.events_run);
  // Crash recoveries as the clients count them (each is also counted once
  // by the server that served it); catch-up chunks are server-side.
  j += ", \"rejoins\": " + std::to_string(r.client_stats.rejoins);
  j += ", \"snapshot_chunks\": " +
       std::to_string(r.server_stats.snapshot_chunks);
  // Channel and sync counters of both sides together (retries and AE
  // repairs are counted at clients); fan-out is server-side only.
  ChannelStats channel = r.client_stats.channel;
  channel.Merge(r.server_stats.channel);
  AppendCounters(&j, kChannelFields, channel);
  AppendCounters(&j, kFanoutFields, r.server_stats.fanout);
  j += ", \"dirty_scan_ratio\": ";
  detail::AppendDouble(&j, r.server_stats.fanout.DirtyScanRatio(r.num_clients));
  SyncCounters sync = r.server_stats.sync;
  sync.Merge(r.client_stats.sync);
  AppendCounters(&j, kSyncFields, sync);
  if (!r.shard_counters.empty()) {
    // Sharded-tier counters (DESIGN.md §12, §14): fleet totals plus one
    // entry per shard, in shard order.
    ShardCounters total;
    for (const ShardCounters& sc : r.shard_counters) total.Merge(sc);
    j += ", \"shard_count\": " + std::to_string(r.shard_counters.size());
    AppendCounters(&j, kShardFields, total, /*fleet_total=*/true);
    j += ", \"fast_path_fraction\": ";
    detail::AppendDouble(&j, total.FastPathFraction());
    j += ", \"migration_moves_planned\": " +
         std::to_string(r.migration_moves_planned);
    j += ", \"load_imbalance_first\": ";
    detail::AppendDouble(&j, r.load_imbalance_first);
    j += ", \"load_imbalance_last\": ";
    detail::AppendDouble(&j, r.load_imbalance_last);
    j += ", \"imbalance_windows\": [";
    for (size_t w = 0; w < r.shard_imbalance_windows.size(); ++w) {
      if (w > 0) j += ", ";
      detail::AppendDouble(&j, r.shard_imbalance_windows[w]);
    }
    j += "], \"shards\": [";
    for (size_t sh = 0; sh < r.shard_counters.size(); ++sh) {
      if (sh > 0) j += ", ";
      j += "{";
      AppendCounters(&j, kShardFields, r.shard_counters[sh]);
      j += "}";
    }
    j += "]";
  }
  j += "}}";
}

/// Writes `BENCH_<bench_name>.json` in the working directory: the run
/// envelope plus one AppendBenchRow row per sweep point. The schema is
/// documented in DESIGN.md §8.
inline bool WriteBenchJson(const std::string& bench_name, int num_jobs,
                           bool quick, const std::vector<SweepJob>& jobs,
                           const std::vector<SweepResult>& results) {
  std::string j;
  j.reserve(4096 + 1024 * jobs.size());
  double total_wall = 0.0;
  for (const SweepResult& r : results) total_wall += r.wall_seconds;

  j += "{\n";
  j += "  \"bench\": \"";
  detail::AppendEscaped(&j, bench_name);
  j += "\",\n";
  j += "  \"schema_version\": 1,\n";
  j += "  \"jobs\": " + std::to_string(num_jobs) + ",\n";
  j += std::string("  \"quick\": ") + (quick ? "true" : "false") + ",\n";
  j += "  \"total_sim_wall_seconds\": ";
  detail::AppendDouble(&j, total_wall);
  j += ",\n  \"rows\": [\n";
  for (size_t i = 0; i < jobs.size() && i < results.size(); ++i) {
    AppendBenchRow(&j, jobs[i], results[i]);
    j += (i + 1 < jobs.size()) ? ",\n" : "\n";
  }
  j += "  ]\n}\n";

  const std::string path = "BENCH_" + bench_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WARNING: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(j.data(), 1, j.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu rows, %.2fs simulated wall time, jobs=%d)\n",
              path.c_str(), jobs.size(), total_wall, num_jobs);
  return true;
}

}  // namespace seve::bench

#endif  // SEVE_BENCH_BENCH_UTIL_H_
