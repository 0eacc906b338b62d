// Table II: Percentage of moves dropped as a function of the move effect
// range (avatar visibility fixed at 20 units, dense 250x250 world).
//
// Paper's numbers:  range 1 -> 0%,  3 -> 0%,  5 -> 0.01%,  7 -> 1.53%,
//                   9 -> 4.03%,  11 -> 8.87%.
// The shape to reproduce: no drops while the effect range is below the
// avatar spacing; once moves start chaining across neighbours the drop
// rate climbs steeply with the range.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "sim/sweep.h"

int main(int argc, char** argv) {
  using namespace seve;
  bench::Banner(
      "Table II - % moves dropped vs move effect range (visibility 20)",
      "0 / 0 / 0.01 / 1.53 / 4.03 / 8.87 percent for ranges 1..11");

  const bool quick = bench::QuickMode(argc, argv);
  const int num_jobs = bench::JobsArg(argc, argv);
  const std::vector<double> ranges =
      quick ? std::vector<double>{3.0, 9.0}
            : std::vector<double>{1.0, 3.0, 5.0, 7.0, 9.0, 11.0};

  std::vector<SweepJob> jobs;
  for (const double range : ranges) {
    Scenario s = Scenario::TableOne(60);
    s.world.bounds = AABB{{0.0, 0.0}, {250.0, 250.0}};
    // Thin the obstacle layer so per-move cost stays small: Table II
    // isolates chain-breaking geometry, not CPU collapse.
    s.world.num_walls = 1500;
    s.world.visibility = 20.0;
    s.world.move_effect_range = range;
    // Dense spawn calibrated so the percolation threshold of the conflict
    // graph falls where the paper's drop rates take off (between effect
    // range 5 and 7). See EXPERIMENTS.md for the calibration discussion.
    s.world.spawn.pattern = SpawnConfig::Pattern::kGrid;
    s.world.spawn.grid_spacing = 7.0;
    s.seve.threshold = 1.5 * s.world.visibility;  // Table I rule
    s.moves_per_client = quick ? 15 : 100;
    jobs.push_back(
        SweepJob{"seve", range, Architecture::kSeve, std::move(s)});
  }
  const size_t num_range_jobs = jobs.size();

  // Chaos leg: frame loss on every link with the reliable channel
  // enabled. The interesting outputs here are the transport counters
  // (retransmits / duplicates / acks), which land in the JSON rows.
  const std::vector<double> drops =
      quick ? std::vector<double>{0.01} : std::vector<double>{0.01, 0.05};
  for (const double drop : drops) {
    Scenario s = Scenario::TableOne(quick ? 8 : 20);
    s.world.num_walls = 200;
    s.moves_per_client = quick ? 10 : 40;
    s.drop_probability = drop;
    s.reliable_transport = true;
    jobs.push_back(SweepJob{"lossy", drop, Architecture::kIncompleteWorld,
                            std::move(s)});
  }

  const std::vector<SweepResult> results = RunSweep(jobs, num_jobs);
  std::printf("%-18s %-12s %-12s\n", "move effect range", "% dropped",
              "mean resp ms");
  for (size_t i = 0; i < num_range_jobs; ++i) {
    const RunReport& r = results[i].report;
    std::printf("%-18.0f %-12.2f %-12.1f\n", jobs[i].x,
                r.drop_rate * 100.0, r.MeanResponseMs());
  }
  std::printf("\n%-12s %-12s %-12s %-12s\n", "link loss", "retransmits",
              "dup drops", "acks");
  for (size_t i = num_range_jobs; i < jobs.size(); ++i) {
    const RunReport& r = results[i].report;
    ChannelStats c = r.client_stats.channel;
    c.Merge(r.server_stats.channel);
    std::printf("%-12.2f %-12llu %-12llu %-12llu\n", jobs[i].x,
                static_cast<unsigned long long>(c.retransmits),
                static_cast<unsigned long long>(c.dup_drops),
                static_cast<unsigned long long>(c.acks_sent));
  }
  bench::WriteBenchJson("table2_drops", num_jobs, quick, jobs, results);
  return 0;
}
