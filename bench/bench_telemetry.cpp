// Telemetry hot-path cost: what one counter increment costs in each
// mode (plain uint64, compiled-in NoopCounter, atomic Counter, and the
// worst case of a per-increment family lookup), what one flight-recorder
// record() costs against the ring, how many rule evaluations per second
// the AlertEngine sustains, and what attaching the full registry +
// tracer instrumentation does to forwarder throughput.
// Results go to BENCH_telemetry.json.
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace lidc;

/// Keeps the compiler from deleting the measured loop.
inline void sink(std::uint64_t value) {
  asm volatile("" : : "r"(value) : "memory");
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// ns per iteration of `body` over `iters` runs.
template <typename Body>
double measureNs(std::uint64_t iters, Body body) {
  const double start = nowSeconds();
  for (std::uint64_t i = 0; i < iters; ++i) body(i);
  return (nowSeconds() - start) * 1e9 / static_cast<double>(iters);
}

struct ThroughputResult {
  double exchangesPerSec = 0;
};

enum class Mode { kOff, kCounters, kCountersAndTracing };

/// Full consumer->forwarder->producer->consumer exchanges on one node;
/// optionally with the registry attached, and optionally with a
/// trace context on every Interest (per-hop span recording).
ThroughputResult forwarderThroughput(Mode mode, std::uint64_t exchanges) {
  sim::Simulator sim;
  ndn::Forwarder node("bench", sim);
  node.cs().setCapacity(0);  // measure the full path, not cache hits

  telemetry::MetricsRegistry registry;
  telemetry::Tracer tracer(sim);
  if (mode != Mode::kOff) {
    node.attachTelemetry(registry,
                         mode == Mode::kCountersAndTracing ? &tracer : nullptr);
  }

  auto consumer = std::make_shared<ndn::AppFace>("app://c", sim, 1);
  auto producer = std::make_shared<ndn::AppFace>("app://p", sim, 2);
  node.addFace(consumer);
  node.addFace(producer);
  node.registerPrefix(ndn::Name("/svc"), producer->id());
  producer->setInterestHandler([&producer](const ndn::Interest& interest) {
    ndn::Data data(interest.name());
    data.setContent("r");
    data.sign();
    producer->putData(std::move(data));
  });

  const double start = nowSeconds();
  for (std::uint64_t i = 0; i < exchanges; ++i) {
    ndn::Interest interest(ndn::Name("/svc").appendNumber(i));
    if (mode == Mode::kCountersAndTracing) {
      interest.setTraceContext(tracer.startTrace("bench-exchange", "bench"));
    }
    bool done = false;
    consumer->expressInterest(
        interest,
        [&done](const ndn::Interest&, const ndn::Data&) { done = true; });
    sim.run();
    sink(done ? 1 : 0);
  }
  ThroughputResult result;
  result.exchangesPerSec =
      static_cast<double>(exchanges) / (nowSeconds() - start);
  return result;
}

}  // namespace

int main() {
  constexpr std::uint64_t kIncrements = 20'000'000;
  constexpr std::uint64_t kExchanges = 20'000;

  bench::printHeader("Telemetry hot path: counter increment cost");
  bench::printRow({"mode", "ns/inc"});
  bench::printRule(2);

  std::uint64_t plain = 0;
  const double plainNs = measureNs(kIncrements, [&plain](std::uint64_t) { ++plain; });
  sink(plain);
  bench::printRow({"plain-uint64", bench::fmt(plainNs, "%.3f")});

  telemetry::NoopCounter noop;
  const double noopNs = measureNs(kIncrements, [&noop](std::uint64_t) { noop.inc(); });
  sink(noop.value());
  bench::printRow({"noop-counter", bench::fmt(noopNs, "%.3f")});

  telemetry::MetricsRegistry registry;
  telemetry::Counter& counter = registry.counter("lidc_bench_events");
  const double counterNs =
      measureNs(kIncrements, [&counter](std::uint64_t) { counter.inc(); });
  sink(counter.value());
  bench::printRow({"atomic-counter", bench::fmt(counterNs, "%.3f")});

  // Anti-pattern measured on purpose: looking the family up per
  // increment instead of holding the reference.
  const double lookupNs = measureNs(kIncrements / 100, [&registry](std::uint64_t) {
    registry.counter("lidc_bench_lookup", {{"node", "n1"}}).inc();
  });
  sink(registry.counter("lidc_bench_lookup", {{"node", "n1"}}).value());
  bench::printRow({"family-lookup", bench::fmt(lookupNs, "%.3f")});

  bench::printHeader("Flight recorder: record() cost into the ring");
  bench::printRow({"mode", "ns/record"});
  bench::printRule(2);
  sim::Simulator frSim;
  telemetry::FlightRecorder recorder(frSim, 4096);
  const double recordNs = measureNs(kIncrements / 10, [&recorder](std::uint64_t i) {
    recorder.record("bench", log::Level::kWarn,
                    i % 2 == 0 ? "event-even" : "event-odd");
  });
  sink(recorder.recorded());
  bench::printRow({"record", bench::fmt(recordNs, "%.3f")});
  // The null-recorder call site (every component holds a possibly-null
  // pointer) must cost a predicted branch, nothing more.
  telemetry::FlightRecorder* nullRecorder = nullptr;
  const double nullRecordNs = measureNs(kIncrements, [&nullRecorder](std::uint64_t i) {
    LIDC_FR_EVENT(nullRecorder, kWarn, "bench", i % 2 == 0 ? "a" : "b");
  });
  bench::printRow({"null-call-site", bench::fmt(nullRecordNs, "%.3f")});

  bench::printHeader("Alert engine: rule evaluations per second");
  bench::printRow({"rules", "evals/s"});
  bench::printRule(2);
  double alertEvalsPerSec = 0;
  {
    constexpr int kRules = 64;
    constexpr std::uint64_t kEvalPasses = 20'000;
    sim::Simulator aeSim;
    telemetry::AlertEngine engine(aeSim);
    std::map<std::string, double> values;
    for (int r = 0; r < kRules; ++r) {
      const std::string series = "s" + std::to_string(r);
      values[series] = static_cast<double>(r);
      engine.addThresholdRule("rule-" + std::to_string(r), series,
                              telemetry::AlertComparison::kAbove, 1e9);
    }
    engine.setValueSource([&values] { return values; });
    const double start = nowSeconds();
    int transitions = 0;
    for (std::uint64_t i = 0; i < kEvalPasses; ++i) transitions += engine.evaluate();
    sink(static_cast<std::uint64_t>(transitions));
    alertEvalsPerSec = static_cast<double>(kEvalPasses) * kRules /
                       (nowSeconds() - start);
    bench::printRow({bench::fmt(static_cast<double>(kRules), "%.0f"),
                     bench::fmt(alertEvalsPerSec, "%.0f")});
  }

  bench::printHeader("Forwarder throughput: instrumentation on vs off");
  bench::printRow({"mode", "exchanges/s"});
  bench::printRule(2);
  const ThroughputResult off = forwarderThroughput(Mode::kOff, kExchanges);
  bench::printRow({"off", bench::fmt(off.exchangesPerSec, "%.0f")});
  const ThroughputResult counters =
      forwarderThroughput(Mode::kCounters, kExchanges);
  bench::printRow({"counters", bench::fmt(counters.exchangesPerSec, "%.0f")});
  const ThroughputResult traced =
      forwarderThroughput(Mode::kCountersAndTracing, kExchanges);
  bench::printRow({"counters+trace", bench::fmt(traced.exchangesPerSec, "%.0f")});
  const double counterOverheadPct =
      100.0 * (off.exchangesPerSec - counters.exchangesPerSec) /
      off.exchangesPerSec;
  const double tracingOverheadPct =
      100.0 * (off.exchangesPerSec - traced.exchangesPerSec) /
      off.exchangesPerSec;
  std::printf("counter overhead: %.1f%%, counter+tracing overhead: %.1f%%\n",
              counterOverheadPct, tracingOverheadPct);

  std::printf(
      "shape check: a held Counter& costs one relaxed fetch_add (~plain\n"
      "increment); NoopCounter compiles away entirely; only the per-call\n"
      "family lookup pays for hashing. The forwarder always counts into\n"
      "its own Counters and the registry adopts them, so attaching\n"
      "counters adds no per-packet work; per-hop span recording costs\n"
      "more and is only paid by Interests that carry a trace context.\n");

  bench::JsonReport report("telemetry");
  report.add("plain_uint64_inc_ns", plainNs);
  report.add("noop_counter_inc_ns", noopNs);
  report.add("atomic_counter_inc_ns", counterNs);
  report.add("family_lookup_inc_ns", lookupNs);
  report.add("flight_recorder_record_ns", recordNs);
  report.add("flight_recorder_null_site_ns", nullRecordNs);
  report.add("alert_rule_evals_per_s", alertEvalsPerSec);
  report.add("forwarder_exchanges_per_s_off", off.exchangesPerSec);
  report.add("forwarder_exchanges_per_s_counters", counters.exchangesPerSec);
  report.add("forwarder_exchanges_per_s_traced", traced.exchangesPerSec);
  report.add("counter_overhead_pct", counterOverheadPct);
  report.add("tracing_overhead_pct", tracingOverheadPct);
  report.write();
  return 0;
}
