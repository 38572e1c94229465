// MetricsRegistry unit tests: instrument semantics (counter, gauge,
// log2 histogram quantiles), labeled families, collector callbacks,
// exporter round-trips, and hot-path thread safety (the concurrent
// tests are what the ThreadSanitizer CI job exercises).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "telemetry/metrics.hpp"

namespace lidc::telemetry {
namespace {

TEST(MetricsTest, CounterStartsAtZeroAndAccumulates) {
  MetricsRegistry registry;
  Counter& c = registry.counter("lidc_test_events");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name -> same instrument.
  EXPECT_EQ(&registry.counter("lidc_test_events"), &c);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsTest, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry registry;
  Counter& a = registry.counter("lidc_test", {{"x", "1"}, {"y", "2"}});
  Counter& b = registry.counter("lidc_test", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
  Counter& other = registry.counter("lidc_test", {{"x", "1"}, {"y", "3"}});
  EXPECT_NE(&a, &other);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("lidc_test_depth");
  g.set(10.0);
  g.add(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
}

TEST(MetricsTest, HistogramBucketsAndQuantiles) {
  // Bucket 0 = [0,1), bucket i = [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucketFor(0.0), 0);
  EXPECT_EQ(Histogram::bucketFor(0.99), 0);
  EXPECT_EQ(Histogram::bucketFor(1.0), 1);
  EXPECT_EQ(Histogram::bucketFor(2.0), 2);
  EXPECT_EQ(Histogram::bucketFor(1023.0), 10);
  EXPECT_EQ(Histogram::bucketFor(1024.0), 11);
  EXPECT_EQ(Histogram::bucketFor(-5.0), 0);  // clamped

  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  // 90 fast observations, 10 slow ones.
  for (int i = 0; i < 90; ++i) h.observe(10.0);
  for (int i = 0; i < 10; ++i) h.observe(5000.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 90 * 10.0 + 10 * 5000.0);
  // p50 lands in 10.0's bucket [8,16), p99 in 5000.0's [4096,8192).
  EXPECT_GE(h.quantile(0.5), 8.0);
  EXPECT_LT(h.quantile(0.5), 16.0);
  EXPECT_GE(h.quantile(0.99), 4096.0);
  EXPECT_LT(h.quantile(0.99), 8192.0);
  // Quantiles are monotone.
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
}

TEST(MetricsTest, KindMismatchAsserts) {
  MetricsRegistry registry;
  registry.counter("lidc_test_thing");
#ifndef NDEBUG
  EXPECT_DEATH(registry.gauge("lidc_test_thing"), "");
#endif
}

TEST(MetricsTest, SnapshotFiltersByPrefixAndOrders) {
  MetricsRegistry registry;
  registry.counter("lidc_b").inc(2);
  registry.counter("lidc_a", {{"node", "n1"}}).inc(1);
  registry.gauge("other_metric").set(9);

  const auto all = registry.snapshot();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "lidc_a");
  EXPECT_EQ(all[1].name, "lidc_b");
  EXPECT_EQ(all[2].name, "other_metric");

  const auto lidc = registry.snapshot("lidc_");
  ASSERT_EQ(lidc.size(), 2u);
  EXPECT_EQ(lidc[0].name, "lidc_a");
  ASSERT_EQ(lidc[0].labels.size(), 1u);
  EXPECT_EQ(lidc[0].labels[0].second, "n1");
  EXPECT_DOUBLE_EQ(lidc[1].value, 2.0);
}

TEST(MetricsTest, CollectorRunsBeforeSnapshotAndMayCreateInstruments) {
  MetricsRegistry registry;
  std::uint64_t derived = 7;
  const CollectorHandle handle = registry.registerCollector([&registry, &derived] {
    // Creating the instrument inside the collector must not deadlock.
    registry.counter("lidc_derived_total").set(derived);
  });
  auto snaps = registry.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_DOUBLE_EQ(snaps[0].value, 7.0);
  derived = 11;
  snaps = registry.snapshot();
  EXPECT_DOUBLE_EQ(snaps[0].value, 11.0);
}

TEST(MetricsTest, CollectorStopsRunningWhenItsHandleDies) {
  MetricsRegistry registry;
  int runs = 0;
  CollectorHandle handle = registry.registerCollector([&runs] { ++runs; });
  (void)registry.snapshot();
  EXPECT_EQ(runs, 1);
  handle.reset();
  (void)registry.snapshot();
  (void)registry.toPrometheus();
  EXPECT_EQ(runs, 1);
}

TEST(MetricsTest, AdoptedCounterIsTheComponentsOwnCount) {
  MetricsRegistry registry;
  auto owned = std::make_shared<Counter>();
  owned->inc(3);  // counted before the attach
  registry.adopt("lidc_owned_total", {{"node", "n1"}}, owned);
  owned->inc(2);
  EXPECT_EQ(&registry.counter("lidc_owned_total", {{"node", "n1"}}), owned.get());
  EXPECT_EQ(registry.flatten().at("lidc_owned_total{node=\"n1\"}"), 5.0);

  // The registry shares ownership: the series outlives the component.
  owned.reset();
  EXPECT_EQ(registry.flatten().at("lidc_owned_total{node=\"n1\"}"), 5.0);
}

TEST(MetricsTest, AdoptReplacesTheExportedCounterAndKeepsOldReferencesValid) {
  MetricsRegistry registry;
  Counter& first = registry.counter("lidc_events_total");
  first.inc(4);
  auto adopted = std::make_shared<Counter>();
  adopted->inc(1);
  registry.adopt("lidc_events_total", {}, adopted);
  first.inc();  // still a valid reference, no longer exported
  EXPECT_EQ(first.value(), 5u);
  EXPECT_EQ(registry.flatten().at("lidc_events_total"), 1.0);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsTest, CounterReadsAndCopiesAsItsValue) {
  Counter c;
  c.inc(41);
  c.inc();
  const std::uint64_t asInt = c;
  EXPECT_EQ(asInt, 42u);
  EXPECT_EQ(c + c, 84u);
  EXPECT_EQ(static_cast<double>(c), 42.0);
  const Counter snapshot = c;
  c.inc();
  EXPECT_EQ(snapshot, 42u);
  EXPECT_EQ(c, 43u);
}

TEST(MetricsTest, PrometheusRoundTrip) {
  MetricsRegistry registry;
  registry.counter("lidc_events", {{"node", "gw"}}).inc(5);
  registry.gauge("lidc_depth").set(3.5);
  Histogram& h = registry.histogram("lidc_latency_us");
  h.observe(100.0);
  h.observe(200.0);

  const std::string text = registry.toPrometheus();
  EXPECT_NE(text.find("# TYPE lidc_events counter"), std::string::npos);
  EXPECT_NE(text.find("lidc_events{node=\"gw\"} 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lidc_latency_us summary"), std::string::npos);

  const auto values = parsePrometheusText(text);
  EXPECT_DOUBLE_EQ(values.at("lidc_events{node=\"gw\"}"), 5.0);
  EXPECT_DOUBLE_EQ(values.at("lidc_depth"), 3.5);
  EXPECT_DOUBLE_EQ(values.at("lidc_latency_us_count"), 2.0);
  EXPECT_DOUBLE_EQ(values.at("lidc_latency_us_sum"), 300.0);

  // flatten() is exactly the scraped-collector view of toPrometheus().
  EXPECT_EQ(registry.flatten(), values);
}

TEST(MetricsTest, JsonExportContainsHistogramSummary) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lidc_latency_us", {{"client", "c1"}});
  for (int i = 0; i < 10; ++i) h.observe(64.0);
  const std::string json = registry.toJson();
  EXPECT_NE(json.find("\"name\":\"lidc_latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"client\":\"c1\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":10"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(MetricsTest, HistogramExemplarTracksHighestBucketTracedSample) {
  Histogram h;
  h.observe(500.0);  // untraced samples never become exemplars
  EXPECT_EQ(h.exemplarTrace(), 0u);

  h.observe(100.0, 0xabcd);
  EXPECT_EQ(h.exemplarTrace(), 0xabcdu);
  EXPECT_DOUBLE_EQ(h.exemplarValue(), 100.0);

  // A traced sample in a lower bucket does not displace the exemplar...
  h.observe(10.0, 0x1111);
  EXPECT_EQ(h.exemplarTrace(), 0xabcdu);
  // ...but one in the same-or-higher bucket does: the exemplar follows
  // the tail (the max-bucket sample is by definition >= p99).
  h.observe(4000.0, 0x2222);
  EXPECT_EQ(h.exemplarTrace(), 0x2222u);
  EXPECT_DOUBLE_EQ(h.exemplarValue(), 4000.0);
}

TEST(MetricsTest, JsonExportCarriesExemplarOnlyWhenCaptured) {
  MetricsRegistry registry;
  registry.histogram("lidc_plain_us").observe(64.0);
  EXPECT_EQ(registry.toJson().find("exemplar_trace"), std::string::npos);

  registry.histogram("lidc_traced_us").observe(64.0, 0x00ff12ab34cd56efULL);
  const std::string json = registry.toJson();
  EXPECT_NE(json.find("\"exemplar_trace\":\"00ff12ab34cd56ef\""),
            std::string::npos);
  EXPECT_NE(json.find("\"exemplar_value\":64"), std::string::npos);
}

TEST(MetricsTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter& c = registry.counter("lidc_concurrent");
  Histogram& h = registry.histogram("lidc_concurrent_lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(static_cast<double>(i % 1024));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsTest, ConcurrentRegistrationAndSnapshot) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 500; ++i) {
        registry
            .counter("lidc_family_" + std::to_string(i % 16),
                     {{"thread", std::to_string(t)}})
            .inc();
      }
    });
  }
  threads.emplace_back([&registry] {
    for (int i = 0; i < 50; ++i) (void)registry.snapshot();
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.size(), 16u * kThreads);
}

}  // namespace
}  // namespace lidc::telemetry
