// Face-aggregate parity: the per-node lidc_face_* series a forwarder's
// collector derives at snapshot time equal the sums of its faces' own
// counters *exactly* after a full chaos run (crash + blackout + lossy
// links), where every pipeline branch (retries, nacks, timeouts,
// duplicate nonces) gets exercised.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/client.hpp"
#include "core/overlay.hpp"
#include "sim/chaos.hpp"
#include "telemetry/metrics.hpp"

namespace lidc {
namespace {

/// Sums the per-face counters of one forwarder.
ndn::FaceCounters sumFaces(ndn::Forwarder& forwarder) {
  ndn::FaceCounters total;
  std::size_t seen = 0;
  for (ndn::FaceId id = 1; seen < forwarder.faceCount() && id < 10000; ++id) {
    ndn::Face* face = forwarder.face(id);
    if (face == nullptr) continue;
    ++seen;
    const ndn::FaceCounters& c = face->counters();
    total.nInInterests += c.nInInterests;
    total.nOutInterests += c.nOutInterests;
    total.nInData += c.nInData;
    total.nOutData += c.nOutData;
    total.nInNacks += c.nInNacks;
    total.nOutNacks += c.nOutNacks;
    total.nInBytes += c.nInBytes;
    total.nOutBytes += c.nOutBytes;
  }
  return total;
}

std::uint64_t counterValue(telemetry::MetricsRegistry& registry,
                           const std::string& name, const std::string& node) {
  return registry.counter(name, {{"node", node}}).value();
}

TEST(CounterParityTest, FaceAggregatesMatchTheFacesAcrossChaosRun) {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  for (const char* name : {"east", "west"}) {
    core::ComputeClusterConfig config;
    config.name = name;
    config.nodeCount = 2;
    config.perNode = k8s::Resources{MilliCpu::fromCores(4), ByteSize::fromGiB(8)};
    auto& cc = overlay.addCluster(config);
    cc.cluster().registerApp("sleeper", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(10);
      return result;
    });
    cc.gateway().jobs().mapAppToImage("sleep", "sleeper");
  }
  overlay.connect("client-host", "east",
                  net::LinkParams{sim::Duration::millis(5), 0.0, /*loss=*/0.08});
  overlay.connect("client-host", "west",
                  net::LinkParams{sim::Duration::millis(25), 0.0, /*loss=*/0.08});
  overlay.announceCluster("east");
  overlay.announceCluster("west");

  core::ClientOptions options;
  options.interestLifetime = sim::Duration::seconds(2);
  options.statusPollInterval = sim::Duration::seconds(1);
  options.maxSubmitRetries = 6;
  options.maxFailovers = 3;
  options.deadline = sim::Duration::minutes(10);
  core::LidcClient client(*overlay.topology().node("client-host"), "parity-user",
                          options, /*seed=*/31);

  telemetry::MetricsRegistry registry;
  overlay.attachTelemetry(registry);
  client.attachTelemetry(registry);

  sim::ChaosEngine chaos(sim, /*seed=*/77);
  chaos.clusterCrash("east-crash", overlay.cluster("east")->cluster(),
                     sim::Time::fromNanos(0) + sim::Duration::seconds(8));
  chaos.blackout("east-gw-dark", sim::Time::fromNanos(0) + sim::Duration::seconds(8),
                 sim::Duration::seconds(12), [&overlay](bool on) {
                   overlay.cluster("east")->gateway().setBlackout(on);
                 });

  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    sim.scheduleAt(sim::Time::fromNanos(0) + sim::Duration::seconds(2 * i),
                   [&client, &completed] {
                     core::ComputeRequest request;
                     request.app = "sleep";
                     request.cpu = MilliCpu::fromCores(1);
                     request.memory = ByteSize::fromGiB(1);
                     client.runToCompletion(
                         request, [&completed](Result<core::JobOutcome> r) {
                           if (r.ok()) ++completed;
                         });
                   });
  }
  sim.run();
  ASSERT_GE(completed, 1);

  // Run the collectors so face aggregates are derived, then compare.
  (void)registry.snapshot();

  for (const auto& nodeName : overlay.topology().nodeNames()) {
    ndn::Forwarder& node = *overlay.topology().node(nodeName);
    ASSERT_GT(node.counters().nInInterests, 0u) << nodeName << " saw no traffic";

    const ndn::FaceCounters faces = sumFaces(node);
    EXPECT_EQ(counterValue(registry, "lidc_face_in_interests", nodeName),
              faces.nInInterests) << nodeName;
    EXPECT_EQ(counterValue(registry, "lidc_face_out_interests", nodeName),
              faces.nOutInterests) << nodeName;
    EXPECT_EQ(counterValue(registry, "lidc_face_in_data", nodeName),
              faces.nInData) << nodeName;
    EXPECT_EQ(counterValue(registry, "lidc_face_out_data", nodeName),
              faces.nOutData) << nodeName;
    EXPECT_EQ(counterValue(registry, "lidc_face_in_nacks", nodeName),
              faces.nInNacks) << nodeName;
    EXPECT_EQ(counterValue(registry, "lidc_face_out_nacks", nodeName),
              faces.nOutNacks) << nodeName;
    EXPECT_EQ(counterValue(registry, "lidc_face_in_bytes", nodeName),
              faces.nInBytes) << nodeName;
    EXPECT_EQ(counterValue(registry, "lidc_face_out_bytes", nodeName),
              faces.nOutBytes) << nodeName;
  }
}

}  // namespace
}  // namespace lidc
