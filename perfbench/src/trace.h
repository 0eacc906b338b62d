// In-memory host-clock spans recorded by the traced harness around the
// calls it makes into each layer's public functions. Spans nest (each
// records the span open when it began as its parent), carry the ActionId
// of the action they serve (0 = none), and are written out only at exit.
#ifndef SEVE_PERFBENCH_TRACE_H_
#define SEVE_PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One kind per harness call site; names are the span names in the dump.
enum class SpanKind : uint8_t {
  kSetupWorld,       // ApplyWorkload + ManhattanWorld construction
  kSetupNodes,       // node/link construction, replica seeding, Start
  kRunUntil,         // EventLoop::RunUntil
  kRunUntilIdle,     // EventLoop::RunUntilIdle
  kMakeMove,         // ManhattanWorld::MakeMove
  kClientSubmit,     // SeveClient::SubmitLocalAction
  kCost,             // the harness's ActionCostFn
  kClientHandle,     // SeveClient::OnMessage
  kServerSubmit,     // SeveServer::OnMessage, SubmitAction
  kServerCompletion, // SeveServer::OnMessage, Completion
  kServerSync,       // SeveServer::OnMessage, rejoin/snapshot/sync kinds
  kServerOther,      // SeveServer::OnMessage, anything else
  kShardHandle,      // SeveShardServer::OnMessage
  kRebalance,        // the rebalance tick (sampling + PlanRebalance)
  kStartMigration,   // SeveShardServer::StartMigration
  kFlushAll,         // stop-and-flush (SeveServer::FlushAll et al.)
  kAudit,            // CheckDigestConsistency
  kDigest,           // replica Digest() calls + DigestReport
  kCount,
};

const char* SpanName(SpanKind kind);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the span list; -1 = root
  SpanKind kind = SpanKind::kCount;
  uint64_t action = 0;  // ActionId value, 0 when the span serves none
};

/// Per-kind totals derived from the span list.
struct SpanTotals {
  std::array<int64_t, static_cast<size_t>(SpanKind::kCount)> total_ns{};
  std::array<int64_t, static_cast<size_t>(SpanKind::kCount)> self_ns{};

  double TotalS(SpanKind k) const {
    return static_cast<double>(total_ns[static_cast<size_t>(k)]) * 1e-9;
  }
  double SelfS(SpanKind k) const {
    return static_cast<double>(self_ns[static_cast<size_t>(k)]) * 1e-9;
  }
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int32_t Begin(SpanKind kind, uint64_t action);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Total and self time (duration minus the part its children cover)
  /// per span kind.
  SpanTotals Totals() const;
  /// Empty when every span is closed, each child lies inside its parent
  /// and the children of a span never add up to more than the span;
  /// otherwise a description of the first violation.
  std::string CheckNesting() const;
  /// Writes one tab-separated line per span: index, parent, name, start
  /// and end in ns since the first span, action id.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind, uint64_t action = 0)
      : tracer_(tracer), index_(tracer->Begin(kind, action)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // SEVE_PERFBENCH_TRACE_H_
