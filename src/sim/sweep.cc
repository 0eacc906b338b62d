#include "sim/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

namespace seve {
namespace {

/// FNV-1a accumulator with typed feeders. Doubles are hashed by bit
/// pattern (with -0.0 canonicalized) so the digest is exact, not
/// tolerance-based.
class Fnv {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void D(double v) {
    if (v == 0.0) v = 0.0;  // canonicalize -0.0
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Hist(const Histogram& h) {
    I64(h.count());
    I64(h.min());
    I64(h.max());
    D(h.sum());
    const auto& buckets = h.buckets();
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] != 0) {
        U64(i);
        I64(buckets[i]);
      }
    }
  }
  template <typename S, size_t N>
  void Counters(const CounterField<S> (&fields)[N], const S& s) {
    for (const CounterField<S>& f : fields) I64(s.*f.member);
  }
  void Stats(const ProtocolStats& s) {
    Counters(kProtocolFields, s);
    Counters(kChannelFields, s.channel);
    Counters(kFanoutFields, s.fanout);
    Counters(kSyncFields, s.sync);
    Hist(s.closure_size);
    Hist(s.response_time_us);
  }
  void Traffic(const TrafficStats& t) {
    I64(t.sent.messages);
    I64(t.sent.bytes);
    I64(t.received.messages);
    I64(t.received.bytes);
  }
  uint64_t get() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

struct WorkerDeque {
  std::mutex mu;
  std::deque<size_t> q;
};

}  // namespace

int DefaultJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace internal {

void ParallelForImpl(size_t n, int jobs, void (*invoke)(void*, size_t),
                     void* ctx) {
  if (n == 0) return;
  if (jobs <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) invoke(ctx, i);
    return;
  }
  const size_t num_workers = std::min(static_cast<size_t>(jobs), n);
  std::vector<WorkerDeque> deques(num_workers);
  // Seed round-robin so neighbouring sweep points (often similar cost)
  // spread across workers.
  for (size_t i = 0; i < n; ++i) {
    deques[i % num_workers].q.push_back(i);
  }

  std::mutex error_mu;
  std::exception_ptr first_error;

  auto worker = [&](size_t self) {
    for (;;) {
      size_t idx = 0;
      bool got = false;
      {
        std::lock_guard<std::mutex> lock(deques[self].mu);
        if (!deques[self].q.empty()) {
          idx = deques[self].q.front();
          deques[self].q.pop_front();
          got = true;
        }
      }
      if (!got) {
        // Own deque drained: steal from the back of another worker's.
        for (size_t off = 1; off < num_workers && !got; ++off) {
          WorkerDeque& victim = deques[(self + off) % num_workers];
          std::lock_guard<std::mutex> lock(victim.mu);
          if (!victim.q.empty()) {
            idx = victim.q.back();
            victim.q.pop_back();
            got = true;
          }
        }
      }
      // No work anywhere. Jobs never enqueue new jobs, so we are done.
      if (!got) return;
      try {
        invoke(ctx, idx);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_workers - 1);
  for (size_t w = 1; w < num_workers; ++w) {
    threads.emplace_back(worker, w);
  }
  worker(0);
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace internal

std::vector<SweepResult> RunSweep(const std::vector<SweepJob>& jobs,
                                  int num_jobs) {
  std::vector<SweepResult> results(jobs.size());
  ParallelFor(jobs.size(), num_jobs, [&](size_t i) {
    const auto start = std::chrono::steady_clock::now();
    results[i].report = RunScenario(jobs[i].arch, jobs[i].scenario);
    results[i].wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    results[i].digest = DigestReport(results[i].report);
  });
  return results;
}

uint64_t DigestReport(const RunReport& r) {
  Fnv f;
  f.I64(static_cast<int64_t>(r.architecture));
  f.I64(r.num_clients);
  f.Hist(r.response_us);
  f.Stats(r.client_stats);
  f.Stats(r.server_stats);
  f.Traffic(r.server_traffic);
  f.Traffic(r.total_traffic);
  f.D(r.per_client_kb);
  f.D(r.avg_visible_avatars);
  f.D(r.drop_rate);
  f.I64(r.consistency.compared);
  f.I64(r.consistency.mismatches);
  f.I64(r.consistency.unreferenced);
  for (const ShardCounters& s : r.shard_counters) f.Counters(kShardFields, s);
  for (const double w : r.shard_imbalance_windows) f.D(w);
  f.D(r.load_imbalance_first);
  f.D(r.load_imbalance_last);
  f.I64(r.migration_moves_planned);
  for (const uint64_t d : r.client_state_digests) f.U64(d);
  f.U64(r.final_state_digest);
  for (const auto& [kind, per] : r.wire_audit.per_kind()) {
    f.I64(kind);
    f.I64(per.count);
    f.I64(per.declared_bytes);
    f.I64(per.encoded_bytes);
    f.I64(per.unencodable);
    f.I64(per.verify_failures);
  }
  f.I64(r.wire_verify_failures);
  f.U64(static_cast<uint64_t>(r.end_time));
  f.U64(static_cast<uint64_t>(r.events_run));
  return f.get();
}

}  // namespace seve
