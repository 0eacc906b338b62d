#include "perfbench/src/trace.h"

#include <chrono>
#include <cstdio>
#include <memory>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSetupWorld: return "sim.setup_world";
    case SpanKind::kSetupNodes: return "sim.setup_nodes";
    case SpanKind::kRunUntil: return "net.run_until";
    case SpanKind::kRunUntilIdle: return "net.run_until_idle";
    case SpanKind::kMakeMove: return "world.make_move";
    case SpanKind::kClientSubmit: return "protocol.client_submit";
    case SpanKind::kCost: return "world.cost";
    case SpanKind::kClientHandle: return "protocol.client_handle";
    case SpanKind::kServerSubmit: return "protocol.server_handle.submit";
    case SpanKind::kServerCompletion:
      return "protocol.server_handle.completion";
    case SpanKind::kServerSync: return "protocol.server_handle.sync";
    case SpanKind::kServerOther: return "protocol.server_handle.other";
    case SpanKind::kShardHandle: return "shard.server_handle";
    case SpanKind::kRebalance: return "shard.rebalance";
    case SpanKind::kStartMigration: return "shard.start_migration";
    case SpanKind::kFlushAll: return "protocol.flush_all";
    case SpanKind::kAudit: return "sim.audit";
    case SpanKind::kDigest: return "sim.digest";
    case SpanKind::kCount: break;
  }
  return "?";
}

int32_t Tracer::Begin(SpanKind kind, uint64_t action) {
  Span span;
  span.kind = kind;
  span.action = action;
  span.parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  // Stamp last, so the bookkeeping above is charged to the parent.
  spans_.back().start_ns = NowNs();
  return index;
}

void Tracer::End(int32_t index) {
  const int64_t now = NowNs();
  spans_[static_cast<size_t>(index)].end_ns = now;
  open_.pop_back();
}

SpanTotals Tracer::Totals() const {
  SpanTotals totals;
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto k = static_cast<size_t>(s.kind);
    totals.total_ns[k] += s.end_ns - s.start_ns;
    totals.self_ns[k] += s.end_ns - s.start_ns - child_ns[i];
  }
  return totals;
}

std::string Tracer::CheckNesting() const {
  if (!open_.empty()) return "span left open";
  std::vector<int64_t> child_ns(spans_.size(), 0);
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) {
      std::snprintf(buf, sizeof(buf), "span %zu (%s) ends before it starts",
                    i, SpanName(s.kind));
      return buf;
    }
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      std::snprintf(buf, sizeof(buf), "span %zu (%s) outside parent %d (%s)",
                    i, SpanName(s.kind), s.parent, SpanName(p.kind));
      return buf;
    }
    child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (child_ns[i] > s.end_ns - s.start_ns) {
      std::snprintf(buf, sizeof(buf), "children of span %zu (%s) exceed it",
                    i, SpanName(s.kind));
      return buf;
    }
  }
  return "";
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "w"),
                                             &std::fclose);
  if (file == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file.get(), "index\tparent\tname\tstart_ns\tend_ns\taction\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file.get(), "%zu\t%d\t%s\t%lld\t%lld\t%llu\n", i, s.parent,
                 SpanName(s.kind),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<unsigned long long>(s.action));
  }
  return std::fflush(file.get()) == 0;
}

}  // namespace perfbench
