// The benchmark's named workloads: one Scenario + Architecture each,
// built from the seed given on the command line. See perfbench/README.md
// for why each one exists.
#ifndef SEVE_PERFBENCH_WORKLOADS_H_
#define SEVE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario.h"

namespace perfbench {

struct Workload {
  std::string name;
  seve::Architecture arch = seve::Architecture::kSeve;
  seve::Scenario scenario;
  /// Seeds one measured repetition runs and pools: the workload's seed and
  /// pool-1 more derived from it (see SubSeed).
  int pool = 1;
};

/// Names of every workload, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` at `seed`. `small` selects the scaled-down
/// self-check variant (same knobs, a fraction of the clients and moves).
/// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, bool small,
                  Workload* out);

/// The i-th seed of a pooled repetition at `seed` (i = 0 is `seed`).
uint64_t SubSeed(uint64_t seed, int i);

/// Moves the scenario schedules: clients × moves_per_client.
int64_t ScheduledMoves(const seve::Scenario& s);

/// Crashes the scenario schedules with a later rejoin.
int64_t ScheduledRejoins(const seve::Scenario& s);

}  // namespace perfbench

#endif  // SEVE_PERFBENCH_WORKLOADS_H_
