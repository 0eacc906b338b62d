// Pins the BENCH row schema to the committed sweep files. The keys the row
// writer emits today, per-shard keys included, must be the keys of every
// row of BENCH_workload_zoo.json (single server) and
// BENCH_fig6_sharded.json (sharded tier). A counter added to a field
// table changes the emitted keys; this test then fails until the
// committed files are regenerated with it.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"

namespace seve {
namespace {

struct RowKeys {
  std::vector<std::string> report;  // keys of the row's "report" object
  std::vector<std::string> shard;   // keys of its first "shards" entry
};

// Lists, for every `"report": {` object in `json`, its own keys (depth 1)
// and the keys of its first per-shard object (depth 3, inside the
// "shards" array).
std::vector<RowKeys> RowKeysOf(const std::string& json) {
  const std::string marker = "\"report\": {";
  std::vector<RowKeys> rows;
  for (size_t at = json.find(marker); at != std::string::npos;
       at = json.find(marker, at + 1)) {
    RowKeys row;
    int depth = 0;
    int shard_objects = 0;
    for (size_t i = at + marker.size() - 1; i < json.size(); ++i) {
      const char c = json[i];
      if (c == '{' || c == '[') {
        ++depth;
        if (c == '{' && depth == 3) ++shard_objects;
      } else if (c == '}' || c == ']') {
        if (--depth == 0) break;
      } else if (c == '"') {
        const size_t close = json.find('"', i + 1);
        if (close == std::string::npos) break;
        const std::string name = json.substr(i + 1, close - i - 1);
        i = close;
        if (i + 1 >= json.size() || json[i + 1] != ':') continue;
        if (depth == 1) row.report.push_back(name);
        if (depth == 3 && shard_objects == 1) row.shard.push_back(name);
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string ReadCommitted(const std::string& name) {
  std::ifstream in(std::string(SEVE_SOURCE_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Scenario Tiny(int shards) {
  Scenario s = Scenario::TableOne(6);
  s.world.num_walls = 200;
  s.moves_per_client = 4;
  s.shards = shards;
  s.seed = 5;
  return s;
}

// Runs `jobs` and returns the BENCH rows the writer makes of them.
std::string Rows(const std::vector<SweepJob>& jobs) {
  const std::vector<SweepResult> results = RunSweep(jobs, /*num_jobs=*/1);
  std::string json;
  for (size_t i = 0; i < jobs.size(); ++i) {
    bench::AppendBenchRow(&json, jobs[i], results[i]);
  }
  return json;
}

void ExpectEveryRowHasKeys(const std::string& file, const RowKeys& want) {
  const std::vector<RowKeys> rows = RowKeysOf(ReadCommitted(file));
  ASSERT_FALSE(rows.empty()) << file << " missing or has no rows";
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].report, want.report) << file << " row " << i;
    EXPECT_EQ(rows[i].shard, want.shard) << file << " row " << i;
  }
}

TEST(BenchSchemaTest, RowKeysMatchCommittedSweepFiles) {
  const std::vector<RowKeys> emitted = RowKeysOf(
      Rows({SweepJob{"seve", 1.0, Architecture::kSeve, Tiny(1)},
            SweepJob{"sharded", 2.0, Architecture::kSeveSharded, Tiny(2)}}));
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_TRUE(emitted[0].shard.empty());
  EXPECT_FALSE(emitted[1].shard.empty());
  ExpectEveryRowHasKeys("BENCH_workload_zoo.json", emitted[0]);
  ExpectEveryRowHasKeys("BENCH_fig6_sharded.json", emitted[1]);
}

// Each recovery is counted once by the client and once by the server that
// served it; the row reports it once.
TEST(BenchSchemaTest, RejoinsCountsEachRecoveryOnce) {
  Scenario s = Tiny(1);
  s.moves_per_client = 10;
  s.failures.push_back({/*client=*/1, /*fail_at_us=*/600'000,
                        /*rejoin_at_us=*/1'200'000});
  s.failures.push_back({/*client=*/4, /*fail_at_us=*/900'000,
                        /*rejoin_at_us=*/1'800'000});
  const std::string row =
      Rows({SweepJob{"rejoin", 1.0, Architecture::kSeve, std::move(s)}});
  EXPECT_NE(row.find("\"rejoins\": 2,"), std::string::npos) << row;
}

}  // namespace
}  // namespace seve
