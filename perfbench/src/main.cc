// seve_perfbench: runs one named workload and prints its metrics.
//
//   seve_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--small] [--spans FILE]
//
// --trace 0 runs the workload through seve::Engine::Run, untraced, and
// reports the end-to-end metrics. --trace 1 alternates an untraced
// Engine::Run with a run of the traced harness (harness.h), checks that
// both give the same report digest, and reports the per-layer metrics and
// the tracing overhead. Every run must pass the correctness gates
// (measure.h); every repetition of a seed must reproduce its digest and
// virtual-clock metrics bit for bit. The last line of output is
// "RESULT <json>", which perfbench/run.py turns into the benchmark's
// result line.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/measure.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "sim/sweep.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

double CpuSeconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool small = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args->small = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || args->seconds < 0.0) return false;
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

enum class Clock { kHost, kVirtual };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Clock clock = Clock::kHost;
};

/// What one invocation measured and whether it was correct. A run is one
/// Engine::Run or traced harness run; it fails when it errors or misses a
/// correctness gate.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // key, json

  void Fail(const std::string& what) {
    std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
    errors.push_back(what);
  }
  void Info(const std::string& key, const std::string& json) {
    info.emplace_back(key, json);
  }
};

struct TimedRun {
  seve::RunReport report;
  uint64_t digest = 0;
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

/// One untraced Engine::Run with the gates applied. Returns false (after
/// recording the failure) when the run did not produce a report.
bool RunEngine(const Workload& w, TimedRun* out, Outcome* outcome) {
  seve::Engine engine;
  const double cpu0 = CpuSeconds();
  const double wall0 = WallSeconds();
  seve::Result<seve::RunReport> result = engine.Run(w.arch, w.scenario);
  out->cpu_s = CpuSeconds() - cpu0;
  out->wall_s = WallSeconds() - wall0;
  ++outcome->attempted;
  if (!result.ok()) {
    ++outcome->failed;
    outcome->Fail(w.name + ": " + result.status().ToString());
    return false;
  }
  out->report = std::move(result).ValueOrDie();
  out->digest = seve::DigestReport(out->report);
  const std::vector<std::string> gates = CheckGates(w, out->report);
  if (!gates.empty()) ++outcome->failed;
  for (const std::string& g : gates) {
    outcome->Fail(w.name + " seed " + std::to_string(w.scenario.seed) +
                  ": " + g);
  }
  return true;
}

Workload WithSeed(const Workload& base, uint64_t seed) {
  Workload w = base;
  w.scenario.seed = seed;
  return w;
}

bool SameVirtual(const VirtualMetrics& a, const VirtualMetrics& b) {
  return a.samples == b.samples && a.p50_ms == b.p50_ms &&
         a.p99_ms == b.p99_ms && a.kb_per_client == b.kb_per_client &&
         a.scheduled == b.scheduled && a.not_submitted == b.not_submitted &&
         a.dropped == b.dropped && a.superseded == b.superseded &&
         a.aborted == b.aborted;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

// ---- --trace 0: end-to-end metrics -----------------------------------------

void EndToEnd(const Workload& base, double seconds, Outcome* out) {
  const int pool = base.pool;
  const uint64_t seed = base.scenario.seed;
  // Set-up: the same scenarios with no moves (world generation, nodes and
  // links, replica seeding, drain and collection). Short, so repeated a
  // fixed number of times (later runs in a process reuse its grown heap,
  // so a time-based count would change what is measured) and reported as
  // the median.
  constexpr int kSetupRuns = 11;
  std::vector<double> setup_cpu;
  for (int r = 0; r < kSetupRuns; ++r) {
    Workload idle = WithSeed(base, SubSeed(seed, r % pool));
    idle.scenario.moves_per_client = 0;
    TimedRun run;
    if (!RunEngine(idle, &run, out)) return;
    setup_cpu.push_back(run.cpu_s);
  }

  // Measured runs cycle through the pool's seeds, at least one more run
  // than the pool holds and until `seconds` is used. The first pass pools
  // the virtual metrics; every later run of a seed must reproduce that
  // seed's digest and virtual metrics bit for bit.
  const double moves = static_cast<double>(ScheduledMoves(base.scenario));
  std::vector<uint64_t> digests;
  std::vector<VirtualMetrics> per_seed;
  VirtualMetrics first;
  seve::Histogram pooled;
  std::vector<double> rate_cpu;
  std::vector<double> rate_wall;
  const double start = WallSeconds();
  for (int j = 0; j <= pool || WallSeconds() - start < seconds; ++j) {
    const int i = j % pool;
    const Workload w = WithSeed(base, SubSeed(seed, i));
    TimedRun run;
    if (!RunEngine(w, &run, out)) return;
    rate_cpu.push_back(moves / run.cpu_s);
    rate_wall.push_back(moves / run.wall_s);
    VirtualMetrics vm;
    seve::Histogram h;
    AddVirtual(w, run.report, 0, &h, &vm);
    if (j < pool) {
      digests.push_back(run.digest);
      per_seed.push_back(vm);
      AddVirtual(w, run.report, j, &pooled, &first);
      continue;
    }
    const size_t k = static_cast<size_t>(i);
    if (run.digest != digests[k] || !SameVirtual(vm, per_seed[k])) {
      ++out->failed;
      out->Fail(w.name + " seed " + std::to_string(w.scenario.seed) +
                ": report digest or virtual metrics changed on a repeat");
    }
  }

  out->metrics = {
      {"sim_actions_per_s", Median(rate_cpu), "1/s", Clock::kHost},
      {"setup_s", Median(setup_cpu), "s", Clock::kHost},
      {"peak_rss_mb", PeakRssMiB(), "MiB", Clock::kHost},
      {"response_p50_ms", first.p50_ms, "ms", Clock::kVirtual},
      {"response_p99_ms", first.p99_ms, "ms", Clock::kVirtual},
      {"kb_per_client", first.kb_per_client, "KiB", Clock::kVirtual},
      {"effective_frac", first.effective_frac(), "ratio", Clock::kVirtual},
  };
  out->Info("measured_runs", JsonNumber(static_cast<double>(rate_cpu.size())));
  out->Info("pool_seeds", JsonNumber(pool));
  out->Info("setup_runs", JsonNumber(static_cast<double>(setup_cpu.size())));
  out->Info("sim_actions_per_wall_s", JsonNumber(Median(rate_wall)));
  std::string rates = "[";
  for (size_t r = 0; r < rate_cpu.size(); ++r) {
    rates += (r > 0 ? ", " : "") + JsonNumber(rate_cpu[r]);
  }
  out->Info("run_rates", rates + "]");
  out->Info("response_samples", JsonNumber(static_cast<double>(first.samples)));
  out->Info("failed_frac", JsonNumber(first.failed_frac()));
  out->Info("scheduled_moves",
            JsonNumber(static_cast<double>(first.scheduled)));
  out->Info("moves_not_submitted",
            JsonNumber(static_cast<double>(first.not_submitted)));
  out->Info("moves_dropped", JsonNumber(static_cast<double>(first.dropped)));
  out->Info("moves_superseded",
            JsonNumber(static_cast<double>(first.superseded)));
  out->Info("moves_aborted", JsonNumber(static_cast<double>(first.aborted)));
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(digests.front()));
  out->Info("digest", JsonString(digest));
}

// ---- --trace 1: per-layer metrics ------------------------------------------

std::vector<Metric> LayerMetrics(const Workload& w, const TracedRun& t,
                                 const SpanTotals& s) {
  const seve::RunReport& r = t.report;
  auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  auto count = [](int64_t v) { return static_cast<double>(v); };

  seve::ChannelStats ch = r.client_stats.channel;
  ch.Merge(r.server_stats.channel);
  int64_t wire_frames = 0;
  for (const auto& [kind, per] : r.wire_audit.per_kind()) {
    wire_frames += per.count;
  }
  seve::ShardCounters fleet;
  for (const seve::ShardCounters& c : r.shard_counters) fleet.Merge(c);
  const seve::SyncCounters& sync = r.server_stats.sync;
  const double loop_s =
      s.TotalS(SpanKind::kRunUntil) + s.TotalS(SpanKind::kRunUntilIdle);
  const double loop_untraced_s =
      s.SelfS(SpanKind::kRunUntil) + s.SelfS(SpanKind::kRunUntilIdle);
  const double submitted = count(r.client_stats.actions_submitted);

  const Clock h = Clock::kHost;
  const Clock v = Clock::kVirtual;
  return {
      {"world.cost_s", s.TotalS(SpanKind::kCost), "s", h},
      {"world.make_move_s", s.TotalS(SpanKind::kMakeMove), "s", h},
      {"world.walls_checked", count(t.walls_checked), "count", v},
      {"net.events", count(static_cast<int64_t>(r.events_run)), "count", v},
      {"net.messages", count(r.total_traffic.sent.messages), "count", v},
      {"net.bytes", count(r.total_traffic.sent.bytes), "B", v},
      {"net.loop_s", loop_s, "s", h},
      {"net.loop_untraced_s", loop_untraced_s, "s", h},
      {"net.ns_per_event",
       ratio(loop_untraced_s * 1e9, count(static_cast<int64_t>(r.events_run))),
       "ns", h},
      {"channel.data_frames", count(ch.data_frames), "count", v},
      {"channel.retransmits", count(ch.retransmits), "count", v},
      {"channel.rtx_timeouts", count(ch.rtx_timeouts), "count", v},
      {"channel.out_of_order", count(ch.out_of_order), "count", v},
      {"channel.ack_bytes", count(ch.ack_bytes), "B", v},
      {"channel.useful_frac",
       ratio(count(ch.data_frames), count(ch.data_frames + ch.retransmits)),
       "ratio", v},
      {"wire.frames", count(wire_frames), "count", v},
      {"wire.encoded_bytes", count(r.wire_audit.TotalEncodedBytes()), "B", v},
      {"wire.declared_bytes", count(r.wire_audit.TotalDeclaredBytes()), "B",
       v},
      {"wire.verify_failures", count(r.wire_verify_failures), "count", v},
      {"protocol.server_handle_s.submit", s.TotalS(SpanKind::kServerSubmit),
       "s", h},
      {"protocol.server_handle_s.completion",
       s.TotalS(SpanKind::kServerCompletion), "s", h},
      {"protocol.server_handle_s.sync", s.TotalS(SpanKind::kServerSync), "s",
       h},
      {"protocol.closure_visits", count(r.server_stats.closure_visits),
       "count", v},
      {"protocol.closure_size_p99",
       Percentile(r.server_stats.closure_size, 0.99), "count", v},
      {"protocol.uncommitted_mean", t.uncommitted_mean, "count", v},
      {"protocol.uncommitted_peak", count(t.uncommitted_peak), "count", v},
      {"protocol.server_busy_pct", t.server_busy_pct, "%", v},
      {"protocol.push_batches", count(r.server_stats.fanout.push_batches),
       "count", v},
      {"protocol.dirty_scan_ratio",
       r.server_stats.fanout.DirtyScanRatio(w.scenario.num_clients), "ratio",
       v},
      {"protocol.drops", count(r.server_stats.actions_dropped), "count", v},
      {"protocol.superseded", count(r.server_stats.fanout.superseded_moves),
       "count", v},
      {"protocol.client_handle_s", s.TotalS(SpanKind::kClientHandle), "s", h},
      {"protocol.client_submit_s", s.TotalS(SpanKind::kClientSubmit), "s", h},
      {"protocol.evals_per_action",
       ratio(count(r.client_stats.actions_evaluated), submitted), "ratio", v},
      {"protocol.reconciled_frac",
       ratio(count(r.client_stats.actions_reconciled), submitted), "ratio",
       v},
      {"store.intersect_calls", static_cast<double>(t.intersect_calls),
       "count", v},
      {"store.sig_reject_frac",
       ratio(static_cast<double>(t.sig_rejects),
             static_cast<double>(t.intersect_calls)),
       "ratio", v},
      {"store.digest_folds", static_cast<double>(t.digest_folds), "count", v},
      {"shard.server_handle_s", s.TotalS(SpanKind::kShardHandle), "s", h},
      {"shard.rebalance_s", s.TotalS(SpanKind::kRebalance), "s", h},
      {"shard.fast_path_frac",
       ratio(count(fleet.fast_path), count(fleet.fast_path + fleet.escalated)),
       "ratio", v},
      {"shard.escalated", count(fleet.escalated), "count", v},
      {"shard.aborts", count(fleet.aborts), "count", v},
      {"shard.migrations_out", count(fleet.migrations_out), "count", v},
      {"shard.load_imbalance_last", r.load_imbalance_last, "ratio", v},
      {"shard.queue_depth_peak", count(fleet.queue_depth_peak), "count", v},
      {"sync.rounds", count(sync.sync_rounds), "count", v},
      {"sync.ae_rounds", count(sync.ae_rounds), "count", v},
      {"sync.delta_rejoins", count(sync.delta_rejoins), "count", v},
      {"sync.fallbacks", count(sync.fallbacks), "count", v},
      {"sync.delta_bytes", count(sync.delta_bytes), "B", v},
      {"sync.delta_over_full",
       ratio(count(sync.delta_bytes), count(sync.full_bytes_estimate)),
       "ratio", v},
      {"sim.setup_world_s", s.TotalS(SpanKind::kSetupWorld), "s", h},
      {"sim.setup_nodes_s", s.TotalS(SpanKind::kSetupNodes), "s", h},
      {"sim.audit_s", s.TotalS(SpanKind::kAudit), "s", h},
      {"sim.digest_s", s.TotalS(SpanKind::kDigest), "s", h},
  };
}

void PerLayer(const Workload& w, double seconds, const std::string& spans,
              Outcome* out) {
  std::vector<double> untraced_cpu;
  std::vector<double> traced_cpu;
  std::vector<std::vector<Metric>> reps;
  std::unique_ptr<Tracer> last;
  bool parity = true;
  std::optional<uint64_t> first_digest;
  const double start = WallSeconds();
  // Pairs alternate which run goes first, so neither side always gets the
  // warmer allocator; at least two pairs, then until `seconds` is used.
  while (reps.size() < 2 || WallSeconds() - start < seconds) {
    const bool traced_first = reps.size() % 2 == 1;
    auto tracer = std::make_unique<Tracer>();
    TracedRun traced;
    double cpu = 0.0;
    bool ran = false;
    auto run_traced = [&] {
      const double cpu0 = CpuSeconds();
      ran = RunTraced(w, tracer.get(), &traced);
      cpu = CpuSeconds() - cpu0;
      ++out->attempted;
    };
    if (traced_first) run_traced();
    TimedRun plain;
    if (!RunEngine(w, &plain, out)) return;
    if (!traced_first) run_traced();

    std::vector<std::string> problems;
    if (!ran) {
      problems.push_back("the traced harness does not support " + w.name);
    } else {
      problems = CheckGates(w, traced.report);
      if (traced.stranded_clients != 0) {
        problems.push_back(std::to_string(traced.stranded_clients) +
                           " crashed clients never finished rejoining");
      }
      if (traced.digest != plain.digest) {
        parity = false;
        problems.push_back("traced digest differs from Engine::Run's");
      }
      if (!first_digest.has_value()) {
        first_digest = plain.digest;
      } else if (plain.digest != *first_digest) {
        problems.push_back("report digest changed between repetitions");
      }
      const std::string nesting = tracer->CheckNesting();
      if (!nesting.empty()) problems.push_back("spans: " + nesting);
    }
    if (!problems.empty()) ++out->failed;
    for (const std::string& p : problems) out->Fail(w.name + ": " + p);
    if (!ran) return;

    untraced_cpu.push_back(plain.cpu_s);
    traced_cpu.push_back(cpu);
    reps.push_back(LayerMetrics(w, traced, tracer->Totals()));
    last = std::move(tracer);
  }

  // Counts repeat exactly; host times are the median over repetitions.
  for (size_t m = 0; m < reps.front().size(); ++m) {
    std::vector<double> values;
    for (const auto& rep : reps) values.push_back(rep[m].value);
    Metric metric = reps.front()[m];
    metric.value = Median(values);
    out->metrics.push_back(metric);
  }
  const double overhead = Median(traced_cpu) / Median(untraced_cpu);
  out->metrics.push_back({"trace.overhead_ratio", overhead, "ratio",
                          Clock::kHost});
  out->Info("repetitions", JsonNumber(static_cast<double>(reps.size())));
  out->Info("spans", JsonNumber(static_cast<double>(last->spans().size())));
  out->Info("untraced_cpu_s", JsonNumber(Median(untraced_cpu)));
  out->Info("traced_cpu_s", JsonNumber(Median(traced_cpu)));
  out->Info("digest_parity", parity ? "true" : "false");
  if (!spans.empty()) {
    if (last->WriteTsv(spans)) {
      out->Info("spans_file", JsonString(spans));
    } else {
      out->Fail("cannot write spans to " + spans);
    }
  }
}

// ---- Output -------------------------------------------------------------------

const char* ClockName(Clock c) {
  return c == Clock::kHost ? "host" : "virtual";
}

void Print(const Args& args, const Workload& w, const Outcome& out) {
  std::printf("# %s seed=%llu trace=%d: %lld runs, %lld failed\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace, static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (const Metric& m : out.metrics) {
    std::printf("%-38s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), ClockName(m.clock));
  }
  for (const auto& [key, json] : out.info) {
    std::printf("# %s = %s\n", key.c_str(), json.c_str());
  }

  std::string json = "{\"workload\": " + JsonString(w.name);
  json += ", \"seed\": " + std::to_string(args.seed);
  json += ", \"trace\": " + std::to_string(args.trace);
  json += ", \"correct\": ";
  json += out.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"errors\": [";
  for (size_t i = 0; i < out.errors.size(); ++i) {
    json += (i > 0 ? ", " : "") + JsonString(out.errors[i]);
  }
  json += "], \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i > 0 ? ", " : "") + JsonString(m.name) +
            ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) +
            ", \"clock\": " + JsonString(ClockName(m.clock)) + "}";
  }
  json += "}, \"info\": {";
  json += "\"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  json += ", \"compiler\": " + JsonString(__VERSION__);
  json += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  json += ", \"small\": ";
  json += args.small ? "true" : "false";
  for (const auto& [key, value] : out.info) {
    json += ", " + JsonString(key) + ": " + value;
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: seve_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--small] [--spans FILE]\n");
    return 2;
  }
  Workload workload;
  if (!MakeWorkload(args.workload, args.seed, args.small, &workload)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string layout = CheckHistogramLayout();
  if (!layout.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", layout.c_str());
    return 1;
  }
  Outcome outcome;
  if (args.trace == 0) {
    EndToEnd(workload, args.seconds, &outcome);
  } else {
    PerLayer(workload, args.seconds, args.spans, &outcome);
  }
  Print(args, workload, outcome);
  return outcome.errors.empty() ? 0 : 1;
}
