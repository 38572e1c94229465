// Google-benchmark glue for the JsonReport machinery: a reporter that
// prints through the display reporter --benchmark_format selects and
// also records each run's per-iteration real time and every counter it
// carries (user counters such as bytes_per_window, and the
// bytes_per_second / items_per_second rates), so gbench binaries emit
// the same BENCH_<name>.json files as the scenario benches.
#pragma once

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace lidc::bench {

class JsonCaptureReporter : public benchmark::BenchmarkReporter {
 public:
  /// Call after benchmark::Initialize(), which parses --benchmark_format.
  explicit JsonCaptureReporter(std::string name)
      : report_(std::move(name)), display_(benchmark::CreateDefaultDisplayReporter()) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::string key = run.benchmark_name();
      for (char& c : key) {
        if (c == '/' || c == ':' || c == '.' || c == ' ') c = '_';
      }
      const double iters = run.iterations > 0
                               ? static_cast<double>(run.iterations)
                               : 1.0;
      report_.add(key + "_real_ns", run.real_accumulated_time * 1e9 / iters);
      // Rates arrive here already divided by time, like user counters.
      for (const auto& [counter, value] : run.counters) {
        report_.add(key + "_" + counter, value.value);
      }
    }
    display_->ReportRuns(runs);
  }

  void Finalize() override { display_->Finalize(); }

  void write() const { report_.write(); }

 private:
  JsonReport report_;
  std::unique_ptr<benchmark::BenchmarkReporter> display_;
};

/// Drop-in replacement for BENCHMARK_MAIN() that writes
/// BENCH_<name>.json after the run.
inline int runBenchmarksWithJsonReport(int argc, char** argv,
                                       const std::string& name) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter(name);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.write();
  benchmark::Shutdown();
  return 0;
}

}  // namespace lidc::bench
