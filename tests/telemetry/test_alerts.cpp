// Alert engine: threshold/SLO/anomaly rules firing and resolving over
// a mutable value source, flight-recorder windows snapshotted into
// alerts, explainAlert() post-mortems, the periodic tick loop, metric
// mirroring, and byte-identical transition logs across identical runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "telemetry/alerts.hpp"
#include "telemetry/metrics.hpp"

namespace lidc::telemetry {
namespace {

class AlertEngineTest : public ::testing::Test {
 protected:
  std::map<std::string, double> values;
  sim::Simulator sim;

  void bind(AlertEngine& engine) {
    engine.setValueSource([this] { return values; });
  }
};

TEST_F(AlertEngineTest, ThresholdRuleFiresAfterForCountAndResolves) {
  AlertEngine engine(sim);
  bind(engine);
  engine.addThresholdRule("nacks-high", "nacks", AlertComparison::kAbove, 10.0,
                          /*forCount=*/2);

  values["nacks"] = 50.0;
  EXPECT_EQ(engine.evaluate(), 0);  // 1st consecutive breach: not yet
  EXPECT_EQ(engine.firingCount(), 0u);
  EXPECT_EQ(engine.evaluate(), 1);  // 2nd: fires
  EXPECT_EQ(engine.firingCount(), 1u);
  EXPECT_EQ(engine.counters().fired, 1u);

  values["nacks"] = 5.0;
  EXPECT_EQ(engine.evaluate(), 1);  // resolves immediately
  EXPECT_EQ(engine.firingCount(), 0u);
  EXPECT_EQ(engine.counters().resolved, 1u);

  ASSERT_EQ(engine.alerts().size(), 1u);
  const Alert& alert = engine.alerts()[0];
  EXPECT_EQ(alert.rule, "nacks-high");
  EXPECT_EQ(alert.series, "nacks");
  EXPECT_FALSE(alert.firing);
  // The alert record tracks the latest observed value (the one it
  // resolved at); the fired value lives in the transition log.
  EXPECT_DOUBLE_EQ(alert.value, 5.0);
  EXPECT_NE(engine.serializedLog().find("value=50"), std::string::npos);
}

TEST_F(AlertEngineTest, BelowComparisonAndMissingSeries) {
  AlertEngine engine(sim);
  bind(engine);
  engine.addThresholdRule("health-low", "health", AlertComparison::kBelow, 0.5);

  // Missing series: threshold rules do not fire on absent data.
  EXPECT_EQ(engine.evaluate(), 0);
  values["health"] = 0.2;
  EXPECT_EQ(engine.evaluate(), 1);
  EXPECT_EQ(engine.firingCount(), 1u);
  values["health"] = 0.9;
  EXPECT_EQ(engine.evaluate(), 1);
  EXPECT_EQ(engine.firingCount(), 0u);
}

TEST_F(AlertEngineTest, FiredAlertSnapshotsFlightRecorderWindow) {
  FlightRecorder recorder(sim, 16);
  AlertEngineOptions options;
  options.eventWindow = 4;
  AlertEngine engine(sim, options);
  bind(engine);
  engine.setFlightRecorder(&recorder);
  engine.addThresholdRule("r", "x", AlertComparison::kAbove, 1.0);

  for (int i = 0; i < 6; ++i) {
    recorder.record("chaos", log::Level::kWarn, "event-" + std::to_string(i));
  }
  values["x"] = 2.0;
  ASSERT_EQ(engine.evaluate(), 1);

  const Alert& alert = engine.alerts()[0];
#if !defined(LIDC_TELEMETRY_DISABLED)
  ASSERT_EQ(alert.events.size(), 4u);
  EXPECT_EQ(alert.events.front().message, "event-2");
  EXPECT_EQ(alert.events.back().message, "event-5");
#endif

  const std::string post = engine.explainAlert(alert.id);
  EXPECT_NE(post.find("rule=r"), std::string::npos);
  EXPECT_NE(post.find("series: x"), std::string::npos);
#if !defined(LIDC_TELEMETRY_DISABLED)
  EXPECT_NE(post.find("event-5"), std::string::npos);
#endif
  EXPECT_TRUE(engine.explainAlert(9999).empty());
}

TEST_F(AlertEngineTest, SloRuleFiresOnSustainedBurn) {
  AlertEngineOptions options;
  options.evaluateInterval = sim::Duration::seconds(1);
  AlertEngine engine(sim, options);
  SloSpec spec;
  spec.name = "submit-slo";
  spec.target = 0.9;
  spec.goodSeries = "good";
  spec.totalSeries = "total";
  spec.windows = {{sim::Duration::seconds(5), 1.0}};
  engine.addSloRule(spec);
  // 10 requests/s; everything succeeds until t=10s, then hard failure.
  engine.setValueSource([this] {
    const double t = sim.now().toSeconds();
    return std::map<std::string, double>{
        {"good", 10.0 * std::min(t, 10.0)}, {"total", 10.0 * t}};
  });
  engine.start();

  bool firedDuringOutage = false;
  sim.scheduleAt(sim::Time::fromNanos(0) + sim::Duration::seconds(25), [&] {
    firedDuringOutage = engine.firingCount() > 0;
  });
  sim.runUntil(sim::Time::fromNanos(0) + sim::Duration::seconds(30));
  engine.stop();
  sim.run();

  EXPECT_TRUE(firedDuringOutage);
  EXPECT_GE(engine.counters().fired, 1u);
  EXPECT_GT(engine.counters().evaluations, 20u);
}

TEST_F(AlertEngineTest, AnomalyRuleFlagsLevelShift) {
  AlertEngine engine(sim);
  bind(engine);
  AnomalyOptions anomaly;
  anomaly.warmupSamples = 5;
  engine.addAnomalyRule("rtt-anomaly", "rtt", anomaly);

  values["rtt"] = 10.0;
  for (int i = 0; i < 12; ++i) EXPECT_EQ(engine.evaluate(), 0);
  values["rtt"] = 500.0;
  EXPECT_EQ(engine.evaluate(), 1);
  EXPECT_EQ(engine.firingCount(), 1u);
  // Sustained shift becomes the new normal and the alert resolves.
  bool resolved = false;
  for (int i = 0; i < 30 && !resolved; ++i) {
    engine.evaluate();
    resolved = engine.firingCount() == 0;
  }
  EXPECT_TRUE(resolved);
}

TEST_F(AlertEngineTest, AttachTelemetryMirrorsCounters) {
  MetricsRegistry registry;
  AlertEngine engine(sim);
  bind(engine);
  engine.attachTelemetry(registry);
  engine.addThresholdRule("r", "x", AlertComparison::kAbove, 1.0);

  values["x"] = 2.0;
  engine.evaluate();
  values["x"] = 0.0;
  engine.evaluate();

  const auto flat = registry.flatten();
  EXPECT_EQ(flat.at("lidc_alerts_fired_total"), 1.0);
  EXPECT_EQ(flat.at("lidc_alerts_resolved_total"), 1.0);
  EXPECT_EQ(flat.at("lidc_alerts_firing"), 0.0);
  EXPECT_EQ(flat.at("lidc_alerts_evaluations_total"), 2.0);
}

TEST_F(AlertEngineTest, RevisionBumpsOnlyOnTransitions) {
  AlertEngine engine(sim);
  bind(engine);
  engine.addThresholdRule("r", "x", AlertComparison::kAbove, 1.0);
  const std::uint64_t initial = engine.revision();
  values["x"] = 0.0;
  engine.evaluate();
  engine.evaluate();
  EXPECT_EQ(engine.revision(), initial);  // no transitions, no new seq
  values["x"] = 2.0;
  engine.evaluate();
  EXPECT_GT(engine.revision(), initial);
}

TEST_F(AlertEngineTest, SerializedLogIsDeterministic) {
  const auto run = [] {
    sim::Simulator sim;
    AlertEngine engine(sim);
    engine.setValueSource([&sim] {
      const double t = sim.now().toSeconds();
      return std::map<std::string, double>{
          {"x", (t >= 5.0 && t < 12.0) ? 3.0 : 0.0}};
    });
    engine.addThresholdRule("r", "x", AlertComparison::kAbove, 1.0);
    engine.start();
    sim.runUntil(sim::Time::fromNanos(0) + sim::Duration::seconds(20));
    engine.stop();
    sim.run();
    return engine.serializedLog();
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("state=fired"), std::string::npos);
  EXPECT_NE(first.find("state=resolved"), std::string::npos);
  EXPECT_EQ(first, run());
}

}  // namespace
}  // namespace lidc::telemetry
