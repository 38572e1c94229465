// End-to-end traffic observability (ISSUE 9 acceptance): a noisy
// tenant floods a bandwidth-limited link with data fetches while a
// well-behaved tenant trickles tagged workflow fetches. The claims:
// the weathermap's topTalkers() names the aggressor tenant on the hot
// link; the saturation and dominance alerts fire off the weathermap's
// value source with non-empty flight-recorder windows that contain the
// weathermap's own hot-link events; and explainLink() / the fleet JSON
// are byte-identical per seed.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/overlay.hpp"
#include "datalake/file_server.hpp"
#include "k8s/pvc.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/weathermap.hpp"

namespace lidc {
namespace {

const char* const kHotLink = "link://east->client-host";

std::vector<std::uint8_t> payload(std::size_t size) {
  return std::vector<std::uint8_t>(size, 0x42);
}

/// One cluster "east" serving a data lake over a 1 Mbit/s link to
/// "client-host"; an ops host runs the weathermap + alert engine.
struct FlowScenario {
  FlowScenario()
      : lakePvc("east-lake", ByteSize::fromMiB(64)), lakeStore(lakePvc) {
    overlay = std::make_unique<core::ClusterOverlay>(sim);
    overlay->addNode("client-host");
    overlay->addNode("ops");

    core::ComputeClusterConfig config;
    config.name = "east";
    config.nodeCount = 1;
    overlay->addCluster(config);

    // The contended link: 1 Mbit/s. The aggressor offers slightly more.
    net::LinkParams dataLink;
    dataLink.latency = sim::Duration::millis(5);
    dataLink.bandwidthBitsPerSec = 1'000'000.0;
    overlay->connect("client-host", "east", dataLink);
    overlay->connect("ops", "east", net::LinkParams{sim::Duration::millis(2)});
    overlay->announceCluster("east");

    // East's lake: unique objects per fetch so the client-side content
    // store cannot short-circuit the flood.
    server = std::make_unique<datalake::FileServer>(
        *overlay->topology().node("east"), lakeStore, kDataPrefix);
    for (int i = 0; i < 70; ++i) {
      (void)lakeStore.put(noisyObject(i), payload(32 * 1024));
    }
    for (int i = 0; i < 8; ++i) {
      (void)lakeStore.put(acmeObject(i), payload(4 * 1024));
    }
    overlay->topology().installRoutesTo(kDataPrefix, "east");
    ndn::Name telemetryPrefix = telemetry::kTelemetryPrefix;
    telemetryPrefix.append("east");
    overlay->topology().installRoutesTo(telemetryPrefix, "east");

    overlay->attachTelemetry(registry);
    overlay->enableFlowAccounting();
    recorder = std::make_unique<telemetry::FlightRecorder>(sim, 4096);
    overlay->attachFlightRecorder(recorder.get());

    telemetry::WeathermapOptions mapOptions;
    mapOptions.collector.interestLifetime = sim::Duration::millis(500);
    mapOptions.collector.freshnessWindow = sim::Duration::seconds(5);
    mapOptions.collector.scrapeInterval = sim::Duration::seconds(2);
    weathermap = std::make_unique<telemetry::Weathermap>(
        *overlay->topology().node("ops"), mapOptions);
    weathermap->watchCluster("east");
    weathermap->setFlightRecorder(recorder.get());

    telemetry::AlertEngineOptions alertOptions;
    alertOptions.eventWindow = 16;
    alertOptions.evaluateInterval = sim::Duration::seconds(1);
    alerts = std::make_unique<telemetry::AlertEngine>(sim, alertOptions);
    alerts->setValueSource(weathermap->valueSource());
    alerts->setFlightRecorder(recorder.get());
    alerts->addThresholdRule(
        "east-link-saturation",
        std::string("east/lidc_link_utilization{link=\"") + kHotLink + "\"}",
        telemetry::AlertComparison::kAbove, 0.8, /*forCount=*/3);
    alerts->addThresholdRule("east-tenant-dominance", "fleet/max_dominant_share",
                             telemetry::AlertComparison::kAbove, 0.5,
                             /*forCount=*/3);

    core::ClientOptions noisyOptions;
    noisyOptions.tenant = "noisy";
    noisyOptions.interestLifetime = sim::Duration::seconds(30);
    noisy = std::make_unique<core::LidcClient>(
        *overlay->topology().node("client-host"), "noisy-user", noisyOptions,
        /*seed=*/303);
    core::ClientOptions acmeOptions;
    acmeOptions.tenant = "acme";
    acmeOptions.interestLifetime = sim::Duration::seconds(30);
    acme = std::make_unique<core::LidcClient>(
        *overlay->topology().node("client-host"), "acme-user", acmeOptions,
        /*seed=*/101);
  }

  static ndn::Name noisyObject(int i) {
    return ndn::Name("/ndn/k8s/data/bulk/" + std::to_string(i));
  }
  static ndn::Name acmeObject(int i) {
    return ndn::Name("/ndn/k8s/data/genome/" + std::to_string(i));
  }

  /// The aggressor fetches a fresh 32 KiB object every 250 ms
  /// (~1.05 Mbit/s offered against the 1 Mbit/s link) over t=[0.5s,18s);
  /// acme fetches a 4 KiB object every 2 s, tagged with its workflow.
  void run() {
    weathermap->start();
    alerts->start();
    for (int i = 0; i < 70; ++i) {
      sim.scheduleAt(
          sim::Time() + sim::Duration::millis(500 + 250 * i), [this, i] {
            noisy->fetchData(noisyObject(i),
                             [this](Result<std::vector<std::uint8_t>> r) {
                               if (r.ok()) ++noisyDelivered;
                             });
          });
    }
    for (int i = 0; i < 8; ++i) {
      sim.scheduleAt(
          sim::Time() + sim::Duration::seconds(1 + 2 * i), [this, i] {
            acme->fetchData(
                acmeObject(i),
                [this](Result<std::vector<std::uint8_t>> r) {
                  if (r.ok()) ++acmeDelivered;
                },
                {}, "wf/genome");
          });
    }
    // Utilization is a trailing-window read: snapshot it mid-flood,
    // just after a scrape, while the link is actually saturated.
    sim.scheduleAt(sim::Time() + sim::Duration::millis(12'500),
                   [this] { midRunLinks = weathermap->links(); });
    sim.scheduleAt(sim::Time() + sim::Duration::seconds(25), [this] {
      weathermap->stop();
      alerts->stop();
    });
    sim.run();
  }

  /// Every reproducible observable in one string.
  [[nodiscard]] std::string fingerprint() const {
    std::ostringstream out;
    out << "delivered noisy=" << noisyDelivered << " acme=" << acmeDelivered
        << "\n--- weathermap ---\n"
        << weathermap->weathermapJson() << "\n--- explain ---\n"
        << weathermap->explainLink(kHotLink) << "--- alerts ---\n"
        << alerts->serializedLog();
    return out.str();
  }

  sim::Simulator sim;
  telemetry::MetricsRegistry registry;
  k8s::PersistentVolumeClaim lakePvc;
  datalake::ObjectStore lakeStore;
  const ndn::Name kDataPrefix{"/ndn/k8s/data"};
  std::unique_ptr<core::ClusterOverlay> overlay;
  std::unique_ptr<datalake::FileServer> server;
  std::unique_ptr<telemetry::FlightRecorder> recorder;
  std::unique_ptr<telemetry::Weathermap> weathermap;
  std::unique_ptr<telemetry::AlertEngine> alerts;
  std::unique_ptr<core::LidcClient> noisy;
  std::unique_ptr<core::LidcClient> acme;
  int noisyDelivered = 0;
  int acmeDelivered = 0;
  std::map<std::string, std::map<std::string, telemetry::LinkView>> midRunLinks;
};

TEST(FlowWeathermapTest, TopTalkersNameTheAggressorOnTheHotLink) {
  FlowScenario scenario;
  scenario.run();

  EXPECT_GT(scenario.noisyDelivered, 0);
  EXPECT_GT(scenario.acmeDelivered, 0);

  const auto talkers = scenario.weathermap->topTalkers(kHotLink);
  ASSERT_FALSE(talkers.empty());
  EXPECT_EQ(talkers[0].rank, 1);
  EXPECT_EQ(talkers[0].tenant, "noisy");
  EXPECT_EQ(talkers[0].group, "data");

  // acme's tagged trickle is attributed too — by tenant AND workflow.
  bool sawAcme = false;
  for (const auto& t : talkers) {
    if (t.tenant == "acme" && t.tag == "wf/genome") sawAcme = true;
  }
  EXPECT_TRUE(sawAcme);

  // The aggressor dominates the link's tenant split.
  const auto fleet = scenario.weathermap->links();
  const telemetry::LinkView& lv = fleet.at("east").at(kHotLink);
  EXPECT_GT(lv.dominantShare, 0.5);
  EXPECT_GT(lv.tenantBytes.at("noisy"), lv.tenantBytes.at("acme"));

  // Mid-flood, the scraped trailing-window utilization shows saturation.
  const telemetry::LinkView& hot = scenario.midRunLinks.at("east").at(kHotLink);
  EXPECT_GT(hot.utilization, 0.8);
}

TEST(FlowWeathermapTest, SaturationAndDominanceAlertsFireWithFlightWindows) {
  FlowScenario scenario;
  scenario.run();

  ASSERT_GE(scenario.alerts->counters().fired, 2u);
  std::map<std::string, const telemetry::Alert*> byRule;
  for (const auto& alert : scenario.alerts->alerts()) {
    byRule.emplace(alert.rule, &alert);
  }
  ASSERT_EQ(byRule.count("east-link-saturation"), 1u);
  ASSERT_EQ(byRule.count("east-tenant-dominance"), 1u);

  // The dominance alert's post-mortem window holds the weathermap's own
  // scrape-time events naming the aggressor.
  const telemetry::Alert& dominance = *byRule.at("east-tenant-dominance");
  ASSERT_FALSE(dominance.events.empty());
  bool sawDominated = false;
  for (const auto& event : dominance.events) {
    if (event.component == "weathermap" &&
        event.message.find("tenant=noisy") != std::string::npos) {
      sawDominated = true;
    }
  }
  EXPECT_TRUE(sawDominated);
}

TEST(FlowWeathermapTest, WeathermapViewsAreByteIdenticalPerSeed) {
  const auto run = [] {
    FlowScenario scenario;
    scenario.run();
    return scenario.fingerprint();
  };
  const std::string first = run();
  EXPECT_NE(first.find("tenant=noisy"), std::string::npos);
  EXPECT_EQ(first, run());
}

}  // namespace
}  // namespace lidc
