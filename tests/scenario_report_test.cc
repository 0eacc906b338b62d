#include <gtest/gtest.h>

#include "sim/report.h"
#include "sim/runner.h"
#include "sim/scenario.h"

namespace seve {
namespace {

// DESIGN.md's per-experiment index promises the Table-I settings are
// asserted in tests; this is that assertion.
TEST(ScenarioTest, TableOneMatchesPaperTableI) {
  const Scenario s = Scenario::TableOne(64);
  EXPECT_DOUBLE_EQ(s.world.bounds.Width(), 1000.0);   // 1000 x 1000
  EXPECT_DOUBLE_EQ(s.world.bounds.Height(), 1000.0);
  EXPECT_EQ(s.world.num_walls, 100000);               // 0 - 100,000 walls
  EXPECT_DOUBLE_EQ(s.world.wall_length, 10.0);
  EXPECT_EQ(s.num_clients, 64);                       // 0 - 64 clients
  // 238 ms average latency between machines = 119 ms one way.
  EXPECT_EQ(2 * s.one_way_latency_us, 238 * kMicrosPerMilli);
  EXPECT_DOUBLE_EQ(s.link_kbps, 100.0);               // 100 Kbps
  EXPECT_EQ(s.moves_per_client, 100);                 // 100 moves
  EXPECT_EQ(s.move_period_us, 300 * kMicrosPerMilli); // every 300 ms
  EXPECT_DOUBLE_EQ(s.world.move_effect_range, 10.0);  // 10 units
  EXPECT_DOUBLE_EQ(s.world.visibility, 30.0);         // 30 units
  // Threshold = 1.5 x avatar visibility.
  EXPECT_DOUBLE_EQ(s.seve.threshold, 45.0);
}

TEST(ScenarioTest, PaperMoveCostCalibration) {
  // The cost model at Table-I density lands on the paper's 7.44 ms/move.
  const Scenario s = Scenario::TableOne(64);
  // ~0.1 walls/unit^2 within the 1.9x-visibility check radius.
  const double check_radius =
      s.world.visibility * s.cost.wall_check_radius_factor;
  const double wall_density =
      s.world.num_walls /
      (s.world.bounds.Width() * s.world.bounds.Height());
  const int expected_walls = static_cast<int>(
      wall_density * 3.14159265 * check_radius * check_radius);
  const Micros move = s.cost.MoveCost(expected_walls, 7);
  EXPECT_GT(move, 6000);
  EXPECT_LT(move, 9000);
}

TEST(ReportTest, SummaryMentionsArchitectureAndConsistency) {
  RunReport report;
  report.architecture = Architecture::kSeve;
  report.num_clients = 12;
  report.response_us.Add(300000);
  report.server_stats.actions_dropped = 5;
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("SEVE"), std::string::npos);
  EXPECT_NE(summary.find("clients=12"), std::string::npos);
  EXPECT_NE(summary.find("consistency"), std::string::npos);
  // Counter lines come from the field tables.
  EXPECT_NE(summary.find("\n  server: actions_submitted="), std::string::npos);
  EXPECT_NE(summary.find(" actions_dropped=5 "), std::string::npos);
}

TEST(ReportTest, ResponseConversions) {
  RunReport report;
  report.response_us.Add(250000);
  report.response_us.Add(350000);
  EXPECT_NEAR(report.MeanResponseMs(), 300.0, 0.001);
  EXPECT_GT(report.P95ResponseMs(), 300.0);
}

TEST(BandwidthTest, StarvedLinksInflateResponse) {
  // Integration of the wire model: a 4 Kbps link cannot carry the action
  // stream, so serialization queueing dominates response time.
  Scenario fast = Scenario::TableOne(4);
  fast.world.num_walls = 200;
  fast.moves_per_client = 10;
  Scenario slow = fast;
  slow.link_kbps = 4.0;
  const RunReport fast_run = RunScenario(Architecture::kSeve, fast);
  const RunReport slow_run = RunScenario(Architecture::kSeve, slow);
  EXPECT_GT(slow_run.MeanResponseMs(), 2.0 * fast_run.MeanResponseMs());
}

TEST(BandwidthTest, UnlimitedLinksAreFastest) {
  Scenario capped = Scenario::TableOne(4);
  capped.world.num_walls = 200;
  capped.moves_per_client = 10;
  Scenario unlimited = capped;
  unlimited.link_kbps = 0.0;  // latency-only
  const RunReport capped_run = RunScenario(Architecture::kSeve, capped);
  const RunReport unlimited_run =
      RunScenario(Architecture::kSeve, unlimited);
  EXPECT_LE(unlimited_run.MeanResponseMs(),
            capped_run.MeanResponseMs() + 1.0);
}

}  // namespace
}  // namespace seve
