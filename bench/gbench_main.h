#ifndef SEVE_BENCH_GBENCH_MAIN_H_
#define SEVE_BENCH_GBENCH_MAIN_H_

#include <cstring>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

namespace seve::bench {

#ifndef SEVE_BUILD_TYPE
#define SEVE_BUILD_TYPE "unknown"
#endif

/// Shared main() body for the google-benchmark binaries: runs the
/// registered benchmarks with `--benchmark_out=BENCH_<name>.json
/// --benchmark_out_format=json` injected, so every bench run leaves a
/// machine-readable trajectory file. Passing an explicit
/// --benchmark_out on the command line overrides the injection. The
/// json context records the CMake build type of the code under test as
/// `seve_build_type` (google-benchmark's own `library_build_type` is the
/// benchmark library's) next to the host's `num_cpus`.
inline int GBenchMain(const char* bench_name, int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    out_flag = std::string("--benchmark_out=BENCH_") + bench_name + ".json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  benchmark::AddCustomContext("seve_build_type", SEVE_BUILD_TYPE);
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

}  // namespace seve::bench

#endif  // SEVE_BENCH_GBENCH_MAIN_H_
