#include "perfbench/src/measure.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

// seve::Histogram's layout (common/histogram.cc): values below 16 get a
// bucket each; above, every power of two splits into 16 equal buckets.
constexpr int kSubBucketBits = 4;
constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;

struct Bounds {
  int64_t lo = 0;  // inclusive
  int64_t hi = 0;  // inclusive
};

Bounds BucketBounds(size_t index) {
  const size_t exponent = index >> kSubBucketBits;
  const auto sub = static_cast<int64_t>(index & (kSubBuckets - 1));
  if (exponent == 0) return {sub, sub};
  const int64_t base = int64_t{1} << exponent;
  const int64_t width = std::max<int64_t>(1, base >> kSubBucketBits);
  return {base + sub * width, base + (sub + 1) * width - 1};
}

}  // namespace

std::string CheckHistogramLayout() {
  const size_t buckets = seve::Histogram().buckets().size();
  for (size_t i = 0; i < buckets; ++i) {
    // Exponents 1-3 would split 2..15, which the single-value buckets
    // below 16 already cover: those indices are never used.
    const size_t exponent = i >> kSubBucketBits;
    if (exponent >= 1 && exponent < kSubBucketBits) continue;
    const Bounds b = BucketBounds(i);
    seve::Histogram h;
    h.Add(b.lo);
    h.Add(b.hi);
    bool ok = h.buckets()[i] == 2;
    if (ok && b.lo > 0) {
      seve::Histogram below;
      below.Add(b.lo - 1);
      ok = below.buckets()[i] == 0;
    }
    if (!ok) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "histogram bucket %zu is not [%lld, %lld]", i,
                    static_cast<long long>(b.lo),
                    static_cast<long long>(b.hi));
      return buf;
    }
  }
  return "";
}

double Percentile(const seve::Histogram& h, double q) {
  if (h.count() == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(h.count());
  const std::vector<int64_t>& buckets = h.buckets();
  int64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (static_cast<double>(seen + buckets[i]) >= target) {
      const Bounds b = BucketBounds(i);
      const double into = (target - static_cast<double>(seen)) /
                          static_cast<double>(buckets[i]);
      const double value =
          static_cast<double>(b.lo) +
          into * static_cast<double>(b.hi + 1 - b.lo);
      return std::clamp(value, static_cast<double>(h.min()),
                        static_cast<double>(h.max()));
    }
    seen += buckets[i];
  }
  return static_cast<double>(h.max());
}

double VirtualMetrics::failed_frac() const {
  if (scheduled == 0) return 0.0;
  const int64_t failed = not_submitted + dropped + superseded + aborted;
  return static_cast<double>(failed) / static_cast<double>(scheduled);
}

void AddVirtual(const Workload& workload, const seve::RunReport& report,
                int runs, seve::Histogram* pooled, VirtualMetrics* out) {
  pooled->Merge(report.response_us);
  out->samples = pooled->count();
  out->p50_ms = Percentile(*pooled, 0.50) / 1000.0;
  out->p99_ms = Percentile(*pooled, 0.99) / 1000.0;
  out->kb_per_client =
      (out->kb_per_client * runs + report.per_client_kb) / (runs + 1);
  const int64_t scheduled = ScheduledMoves(workload.scenario);
  out->scheduled += scheduled;
  out->not_submitted += std::max<int64_t>(
      0, scheduled - report.client_stats.actions_submitted);
  out->dropped += report.server_stats.actions_dropped;
  out->superseded += report.server_stats.fanout.superseded_moves;
  for (const seve::ShardCounters& c : report.shard_counters) {
    out->aborted += c.aborts;
  }
}

std::vector<std::string> CheckGates(const Workload& workload,
                                    const seve::RunReport& report) {
  std::vector<std::string> failures;
  char buf[160];
  if (!report.consistency.consistent()) {
    std::snprintf(buf, sizeof(buf), "consistency audit: %lld mismatches",
                  static_cast<long long>(report.consistency.mismatches));
    failures.emplace_back(buf);
  }
  if (report.wire_verify_failures != 0) {
    std::snprintf(buf, sizeof(buf), "wire verify failures: %lld",
                  static_cast<long long>(report.wire_verify_failures));
    failures.emplace_back(buf);
  }
  const int64_t rejoins = ScheduledRejoins(workload.scenario);
  if (report.client_stats.rejoins != rejoins ||
      report.server_stats.rejoins != rejoins) {
    std::snprintf(buf, sizeof(buf),
                  "rejoins: %lld scheduled, %lld by clients, %lld served",
                  static_cast<long long>(rejoins),
                  static_cast<long long>(report.client_stats.rejoins),
                  static_cast<long long>(report.server_stats.rejoins));
    failures.emplace_back(buf);
  }
  seve::ShardCounters fleet;
  for (const seve::ShardCounters& c : report.shard_counters) fleet.Merge(c);
  if (fleet.escalated != fleet.commits + fleet.aborts) {
    std::snprintf(buf, sizeof(buf),
                  "escalated %lld != commits %lld + aborts %lld",
                  static_cast<long long>(fleet.escalated),
                  static_cast<long long>(fleet.commits),
                  static_cast<long long>(fleet.aborts));
    failures.emplace_back(buf);
  }
  if (fleet.migrations_pending != 0) {
    std::snprintf(buf, sizeof(buf), "migrations pending: %lld",
                  static_cast<long long>(fleet.migrations_pending));
    failures.emplace_back(buf);
  }
  return failures;
}

}  // namespace perfbench
