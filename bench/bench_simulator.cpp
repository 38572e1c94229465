// Simulator event-loop microbenchmarks (google-benchmark): the host
// cost of one schedule+run event, and of arming then cancelling a timer
// the way every satisfied PIT entry cancels its expiry.
#include <benchmark/benchmark.h>

#include "bench_gbench_util.hpp"

#include "sim/simulator.hpp"

namespace {

using namespace lidc;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  // A batch of events spread over 97 distinct times, then drained, so
  // the heap holds range(0) entries at its peak.
  sim::Simulator sim;
  const auto batch = static_cast<std::int64_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (std::int64_t i = 0; i < batch; ++i) {
      sim.scheduleAfter(sim::Duration::micros(i % 97), [&sink] { ++sink; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1)->Arg(1024);

void BM_SimulatorArmCancel(benchmark::State& state) {
  // Each iteration arms a 64 µs expiry, cancels it, and advances 1 µs,
  // which pops the cancelled entry armed 64 iterations earlier: the
  // steady state of a PIT whose Interests are all satisfied.
  sim::Simulator sim;
  std::uint64_t expired = 0;
  for (auto _ : state) {
    sim::EventHandle timer =
        sim.scheduleAfter(sim::Duration::micros(64), [&expired] { ++expired; });
    timer.cancel();
    sim.runUntil(sim.now() + sim::Duration::micros(1));
  }
  benchmark::DoNotOptimize(expired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorArmCancel);

}  // namespace

int main(int argc, char** argv) {
  return lidc::bench::runBenchmarksWithJsonReport(argc, argv, "simulator");
}
