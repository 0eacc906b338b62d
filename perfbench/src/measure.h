// Reading a RunReport: interpolated response percentiles, the
// virtual-clock end-to-end metrics and the correctness gates.
#ifndef SEVE_PERFBENCH_MEASURE_H_
#define SEVE_PERFBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "perfbench/src/workloads.h"
#include "sim/report.h"

namespace perfbench {

/// Confirms that seve::Histogram still uses the bucket layout
/// `Percentile` interpolates over; returns a description of the first
/// mismatch, or "" when it matches.
std::string CheckHistogramLayout();

/// Value at quantile q (0..1), interpolated linearly inside the bucket
/// that holds it and clamped to the recorded min/max. seve::Histogram's
/// own Percentile returns the bucket's upper bound, a step of 3-6%.
double Percentile(const seve::Histogram& h, double q);

/// The virtual-clock end-to-end numbers of one or more runs of a
/// workload (several runs pool their samples and counts).
struct VirtualMetrics {
  int64_t samples = 0;          // response-time samples
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double kb_per_client = 0.0;   // mean over the pooled runs
  int64_t scheduled = 0;        // clients x moves, summed
  int64_t not_submitted = 0;    // client down or still rejoining
  int64_t dropped = 0;          // Algorithm 7
  int64_t superseded = 0;
  int64_t aborted = 0;          // cross-shard escalations aborted
  double failed_frac() const;
  double effective_frac() const { return 1.0 - failed_frac(); }
};

/// Accumulates run `report` of `workload` into `out`; `runs` is how many
/// reports `out` already holds.
void AddVirtual(const Workload& workload, const seve::RunReport& report,
                int runs, seve::Histogram* pooled, VirtualMetrics* out);

/// The correctness gates every run must pass: clean consistency audit,
/// no wire verify failures, every scheduled rejoin seen by client and
/// server, escalated == commits + aborts, no migration left pending.
/// Returns one line per failed gate.
std::vector<std::string> CheckGates(const Workload& workload,
                                    const seve::RunReport& report);

}  // namespace perfbench

#endif  // SEVE_PERFBENCH_MEASURE_H_
