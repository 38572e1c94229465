// End-to-end health & SLO loop (ISSUE 4 acceptance): a chaos gateway
// blackout darkens east's compute plane while its telemetry publisher
// keeps answering. The collector's refused-work deltas drive east's
// health score to zero, which must (a) fire an alert whose post-mortem
// carries a non-empty flight-recorder window naming rule + triggering
// series, (b) publish that alert as signed Data on the named monitoring
// plane where a second collector scrapes it with ordinary Interests,
// and (c) steer >= 80% of subsequent jobs off the degraded cluster
// before it hard-fails a single job — all byte-identical per seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "sim/chaos.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/monitor.hpp"

namespace lidc {
namespace {

constexpr double kMinHealth = 0.5;

/// Two sleeper clusters (east near / west far), the full health plane
/// on the client host, an ops host scraping the alert plane, and a
/// gateway blackout on east from t=12s to t=42s. Jobs launch every 2s
/// through t=40s.
struct HealthScenario {
  explicit HealthScenario(bool steering) {
    overlay = std::make_unique<core::ClusterOverlay>(sim);
    overlay->addNode("client-host");
    overlay->addNode("ops-host");
    addSleeperCluster("east");
    addSleeperCluster("west");
    overlay->connect("client-host", "east",
                     net::LinkParams{sim::Duration::millis(5)});
    overlay->connect("client-host", "west",
                     net::LinkParams{sim::Duration::millis(40)});
    overlay->connect("client-host", "ops-host",
                     net::LinkParams{sim::Duration::millis(10)});
    overlay->announceCluster("east");
    overlay->announceCluster("west");

    overlay->attachTelemetry(registry);

    // Flight recorder wired through every layer, plus warn-level log
    // capture (single code path: the log sink).
    recorder = std::make_unique<telemetry::FlightRecorder>(sim, 4096);
    recorder->captureLogs(log::Level::kWarn);
    overlay->attachFlightRecorder(recorder.get());

    telemetry::TelemetryCollectorOptions collectorOptions;
    collectorOptions.interestLifetime = sim::Duration::millis(800);
    collectorOptions.freshnessWindow = sim::Duration::seconds(3);
    collectorOptions.scrapeInterval = sim::Duration::seconds(1);
    collector = std::make_unique<telemetry::TelemetryCollector>(
        *overlay->topology().node("client-host"), collectorOptions);
    collector->watchCluster("east");
    collector->watchCluster("west");
    collector->attachTelemetry(registry);

    // Close the steering loop: scraped health biases the compute routes
    // (network-level) and the client's proactive failover (edge-level).
    adaptive = std::make_unique<core::AdaptivePlacement>(*overlay);
    if (steering) {
      collector->setHealthListener(
          [this](const std::string& cluster, double score) {
            if (cluster == "east") {
              minEastHealth = std::min(minEastHealth, score);
            }
            adaptive->observeHealth(cluster, score);
            adaptive->tick();
          });
    }

    core::ClientOptions options;
    options.interestLifetime = sim::Duration::seconds(2);
    options.statusPollInterval = sim::Duration::seconds(1);
    options.maxSubmitRetries = 6;
    options.maxStatusPollFailures = 3;
    options.maxFailovers = 4;
    options.deadline = sim::Duration::minutes(10);
    if (steering) {
      options.healthProvider = [this](const std::string& cluster) {
        return collector->healthScore(cluster);
      };
      options.minClusterHealth = kMinHealth;
    }
    client = std::make_unique<core::LidcClient>(
        *overlay->topology().node("client-host"), "slo-user", options,
        /*seed=*/777);
    client->attachTelemetry(registry);
    client->setFlightRecorder(recorder.get());

    // Alert plane: rules over the collector's scraped views...
    telemetry::AlertEngineOptions alertOptions;
    alertOptions.eventWindow = 16;
    alertOptions.evaluateInterval = sim::Duration::seconds(1);
    alerts = std::make_unique<telemetry::AlertEngine>(sim, alertOptions);
    alerts->setValueSource(telemetry::collectorValueSource(*collector));
    alerts->setFlightRecorder(recorder.get());
    alerts->addThresholdRule("east-health-low", "east/health",
                             telemetry::AlertComparison::kBelow, kMinHealth,
                             /*forCount=*/2);
    alerts->attachTelemetry(registry);

    // ...published as signed Data under /ndn/k8s/telemetry/monitor/alerts
    // so any collector can scrape the alert plane over plain Interests.
    alertPublisher = std::make_unique<telemetry::TelemetryPublisher>(
        *overlay->topology().node("client-host"), registry, "monitor");
    alertPublisher->addContentGroup(
        "alerts", [this] { return alerts->serializedLog(); },
        [this] { return alerts->revision(); });
    ndn::Name monitorPrefix = telemetry::kTelemetryPrefix;
    monitorPrefix.append("monitor");
    overlay->topology().installRoutesTo(monitorPrefix, "client-host");

    telemetry::TelemetryCollectorOptions opsOptions;
    opsOptions.group = "alerts";
    opsOptions.interestLifetime = sim::Duration::millis(800);
    opsCollector = std::make_unique<telemetry::TelemetryCollector>(
        *overlay->topology().node("ops-host"), opsOptions);
    opsCollector->watchCluster("monitor");

    chaos = std::make_unique<sim::ChaosEngine>(sim, /*seed=*/99);
    chaos->attachTelemetry(registry);
    chaos->setFlightRecorder(recorder.get());
    chaos->blackout("east-gw-dark",
                    sim::Time::fromNanos(0) + sim::Duration::seconds(12),
                    sim::Duration::seconds(30), [this](bool on) {
                      overlay->cluster("east")->gateway().setBlackout(on);
                    });
  }

  void addSleeperCluster(const std::string& name) {
    core::ComputeClusterConfig config;
    config.name = name;
    config.nodeCount = 2;
    config.perNode = k8s::Resources{MilliCpu::fromCores(4), ByteSize::fromGiB(8)};
    auto& cc = overlay->addCluster(config);
    cc.cluster().registerApp("sleeper", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(10);
      return result;
    });
    cc.gateway().jobs().mapAppToImage("sleep", "sleeper");
  }

  /// Launches 21 jobs 2s apart (t=0..40), scrapes the alert plane from
  /// the ops host at t=25, and runs the world to quiescence.
  void run() {
    collector->start();
    alerts->start();
    const int count = 21;
    outcomes.resize(count);
    launchedAt.resize(count);
    for (int i = 0; i < count; ++i) {
      const sim::Time at = sim::Time::fromNanos(0) + sim::Duration::seconds(2 * i);
      launchedAt[static_cast<std::size_t>(i)] = at;
      sim.scheduleAt(at, [this, i] {
        core::ComputeRequest request;
        request.app = "sleep";
        request.cpu = MilliCpu::fromCores(1);
        request.memory = ByteSize::fromGiB(1);
        client->runToCompletion(request, [this, i](Result<core::JobOutcome> r) {
          outcomes[static_cast<std::size_t>(i)] = std::move(r);
        });
      });
    }
    sim.scheduleAt(sim::Time::fromNanos(0) + sim::Duration::seconds(25), [this] {
      opsCollector->scrapeOnce([this] {
        scrapedAlertLog = opsCollector->view("monitor")->rawText;
      });
    });
    sim.scheduleAt(sim::Time::fromNanos(0) + sim::Duration::seconds(70), [this] {
      collector->stop();
      alerts->stop();
    });
    sim.run();
  }

  /// Placement of jobs launched at or after `fromSeconds` that reached
  /// a terminal state, as "cluster cluster ..." plus a west fraction.
  [[nodiscard]] double westFractionSince(double fromSeconds) const {
    int total = 0, west = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (launchedAt[i].toSeconds() < fromSeconds) continue;
      if (!outcomes[i].has_value() || !(*outcomes[i]).ok()) continue;
      ++total;
      if ((*outcomes[i])->finalStatus.cluster == "west") ++west;
    }
    return total == 0 ? 0.0 : static_cast<double>(west) / total;
  }

  /// Every reproducible observable in one string.
  [[nodiscard]] std::string fingerprint() const {
    std::ostringstream out;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      out << "job" << i << ": ";
      if (!outcomes[i].has_value()) {
        out << "<none>\n";
        continue;
      }
      if (!(*outcomes[i]).ok()) {
        out << (*outcomes[i]).status() << "\n";
        continue;
      }
      const auto& o = *(*outcomes[i]);
      out << "cluster=" << o.finalStatus.cluster
          << " state=" << k8s::jobStateName(o.finalStatus.state)
          << " failovers=" << o.failovers
          << " latency_ns=" << o.totalLatency.toNanos() << "\n";
    }
    out << "--- alerts ---\n" << alerts->serializedLog();
    if (!alerts->alerts().empty()) {
      out << "--- explain ---\n" << alerts->explainAlert(alerts->alerts()[0].id);
    }
    return out.str();
  }

  sim::Simulator sim;
  telemetry::MetricsRegistry registry;
  std::unique_ptr<core::ClusterOverlay> overlay;
  std::unique_ptr<telemetry::FlightRecorder> recorder;
  std::unique_ptr<telemetry::TelemetryCollector> collector;
  std::unique_ptr<core::AdaptivePlacement> adaptive;
  std::unique_ptr<core::LidcClient> client;
  std::unique_ptr<telemetry::AlertEngine> alerts;
  std::unique_ptr<telemetry::TelemetryPublisher> alertPublisher;
  std::unique_ptr<telemetry::TelemetryCollector> opsCollector;
  std::unique_ptr<sim::ChaosEngine> chaos;
  std::vector<std::optional<Result<core::JobOutcome>>> outcomes;
  std::vector<sim::Time> launchedAt;
  std::string scrapedAlertLog;
  /// Lowest health the steering loop ever saw for east (1.0 = never
  /// degraded); only fed when steering is on.
  double minEastHealth = 1.0;
};

TEST(HealthAlertsTest, BlackoutFiresExplainableAlertOnTheNamedPlane) {
  HealthScenario scenario(/*steering=*/true);
  scenario.run();

  // (a) The alert fired during the blackout with a flight-recorder
  // window attached, and the post-mortem names rule + triggering series.
  ASSERT_GE(scenario.alerts->counters().fired, 1u);
  const telemetry::Alert& first = scenario.alerts->alerts()[0];
  EXPECT_EQ(first.rule, "east-health-low");
  EXPECT_EQ(first.series, "east/health");
  EXPECT_GT(first.firedAt.toSeconds(), 12.0);
  EXPECT_FALSE(first.events.empty());

  const std::string post = scenario.alerts->explainAlert(first.id);
  EXPECT_NE(post.find("rule=east-health-low"), std::string::npos) << post;
  EXPECT_NE(post.find("series: east/health"), std::string::npos) << post;
  EXPECT_NE(post.find("threshold east/health < 0.5"), std::string::npos) << post;
  // The captured window holds real structured events from the fault.
  EXPECT_NE(post.find("events ("), std::string::npos) << post;
  EXPECT_NE(post.find("blackout-drop"), std::string::npos) << post;

  // The blackout resolved after recovery: east reads healthy again.
  EXPECT_GE(scenario.alerts->counters().resolved, 1u);

  // (b) The ops host scraped the alert transition log off the named
  // plane via ordinary Interests against /ndn/k8s/telemetry/monitor.
  ASSERT_FALSE(scenario.scrapedAlertLog.empty());
  EXPECT_NE(scenario.scrapedAlertLog.find("state=fired"), std::string::npos);
  EXPECT_NE(scenario.scrapedAlertLog.find("rule=east-health-low"),
            std::string::npos);
  EXPECT_EQ(scenario.opsCollector->counters().scrapesSucceeded, 1u);

  // The alert counters are mirrored into the registry.
  const auto flat = scenario.registry.flatten();
  EXPECT_GE(flat.at("lidc_alerts_fired_total"), 1.0);
}

TEST(HealthAlertsTest, SteeringMovesJobsOffDegradedClusterBeforeFailures) {
  HealthScenario scenario(/*steering=*/true);
  scenario.run();

  // Every job completed — the degraded cluster never hard-failed one.
  for (std::size_t i = 0; i < scenario.outcomes.size(); ++i) {
    ASSERT_TRUE(scenario.outcomes[i].has_value()) << "job " << i;
    ASSERT_TRUE((*scenario.outcomes[i]).ok())
        << "job " << i << ": " << (*scenario.outcomes[i]).status();
    EXPECT_EQ((**scenario.outcomes[i]).finalStatus.state,
              k8s::JobState::kCompleted)
        << "job " << i;
  }

  // (c) After detection (alert fires ~t=14s), jobs shift off east: at
  // least 80% of jobs launched from t=16s on completed on west.
  EXPECT_GE(scenario.westFractionSince(16.0), 0.8);

  // The shift was proactive: the blackout zeroed east's scraped health
  // and the steering loop re-costed its routes (health recovers to 1.0
  // once the blackout lifts, so assert on the minimum seen).
  EXPECT_GT(scenario.adaptive->updatesApplied(), 0u);
  EXPECT_LT(scenario.minEastHealth, kMinHealth);
}

TEST(HealthAlertsTest, AlertAndEventTracesAreByteIdenticalPerSeed) {
  const auto run = [] {
    HealthScenario scenario(/*steering=*/true);
    scenario.run();
    return scenario.fingerprint();
  };
  const std::string first = run();
  EXPECT_NE(first.find("state=fired"), std::string::npos);
  EXPECT_EQ(first, run());
}

}  // namespace
}  // namespace lidc
