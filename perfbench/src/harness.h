// The traced harness: composes the kSeve and kSeveSharded architectures
// from the library's public classes exactly as seve::RunScenario does, so
// it reproduces Engine::Run's report digest, and records host-clock spans
// around every call it makes into a layer. Work the library runs from its
// own timers (server ticks, push cycles, channel timers, send closures)
// cannot be reached from outside and shows up as event-loop self time.
#ifndef SEVE_PERFBENCH_HARNESS_H_
#define SEVE_PERFBENCH_HARNESS_H_

#include <cstdint>

#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "sim/report.h"

namespace perfbench {

/// What the traced run observed beyond its RunReport.
struct TracedRun {
  seve::RunReport report;
  uint64_t digest = 0;            // seve::DigestReport(report)
  int64_t walls_checked = 0;      // walls the cost function priced
  double uncommitted_mean = 0.0;  // serializer queue depth, one sample
  int64_t uncommitted_peak = 0;   // per tick (all serializers summed)
  double server_busy_pct = 0.0;   // serializer CPU busy / run, virtual
  uint64_t digest_folds = 0;      // WorldState digest folds, all replicas
  uint64_t intersect_calls = 0;   // ObjectSet counter deltas over the run
  uint64_t sig_rejects = 0;
  int64_t stranded_clients = 0;   // clients still rejoining at the end
};

/// Runs `workload` (kSeve or kSeveSharded) under `tracer`. Returns false
/// for any other architecture.
bool RunTraced(const Workload& workload, Tracer* tracer, TracedRun* out);

}  // namespace perfbench

#endif  // SEVE_PERFBENCH_HARNESS_H_
