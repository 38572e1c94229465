// Golden export: one seeded chaos run with every instrumented plane
// attached to a single MetricsRegistry — the overlay (forwarders,
// gateways, capacity gauges, QoS admission), a tenant registry, user
// clients, a workflow engine, the chaos engine, an alert engine, the
// telemetry collector, checkpoint managers plus the migration
// coordinator, and the replica plane (schedulers, directory, repair
// loop). The digests of toPrometheus() and toJson() pin every metric
// name, label set, kind and value the run exports: how a component
// stores its counts may change, what the registry reports may not.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/transform_app.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "core/semantic_name.hpp"
#include "genomics/datasets.hpp"
#include "migrate/checkpoint.hpp"
#include "migrate/coordinator.hpp"
#include "qos/tenant.hpp"
#include "replica/catalog.hpp"
#include "replica/directory.hpp"
#include "replica/policy.hpp"
#include "replica/repair.hpp"
#include "replica/scheduler.hpp"
#include "sim/chaos.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/monitor.hpp"
#include "workflow/engine.hpp"

namespace lidc {
namespace {

const char* const kClusters[] = {"east", "west"};

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

sim::Time at(double seconds) { return sim::Time() + sim::Duration::seconds(seconds); }

workflow::WorkflowSpec twoStageSpec() {
  workflow::WorkflowSpec spec;
  spec.id = "golden";
  workflow::StageSpec prep;
  prep.name = "prep";
  prep.app = "transform";
  prep.cpu = MilliCpu::fromCores(1);
  prep.memory = ByteSize::fromGiB(1);
  prep.lakeInputs = {"raw/genome"};
  spec.addStage(prep);
  workflow::StageSpec merge;
  merge.name = "merge";
  merge.app = "transform";
  merge.cpu = MilliCpu::fromCores(1);
  merge.memory = ByteSize::fromGiB(1);
  merge.stageInputs = {{"prep", "input"}};
  spec.addStage(merge);
  return spec;
}

struct Exports {
  std::string prometheus;
  std::string json;
};

Exports runGoldenScenario() {
  sim::Simulator sim;
  qos::TenantRegistry tenants;
  for (const char* id : {"alpha", "beta"}) {
    qos::TenantSpec spec;
    spec.id = id;
    (void)tenants.registerTenant(spec);
  }
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  overlay.addNode("ops-host");
  const genomics::DatasetCatalog catalog(/*scale=*/0.05, /*seed=*/5);
  std::vector<core::ComputeCluster*> clusters;
  for (const char* name : kClusters) {
    core::ComputeClusterConfig config;
    config.name = name;
    config.nodeCount = 2;
    config.perNode = k8s::Resources{MilliCpu::fromCores(4), ByteSize::fromGiB(16)};
    config.tenants = &tenants;
    config.admission.maxQueuePerTenant = 1;
    config.admission.maxQueueTotal = 2;
    config.blast.throughputBytesPerSec = 6e6;
    core::ComputeCluster& cc = overlay.addCluster(config);
    cc.cluster().registerApp("sleeper", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(20);
      return result;
    });
    cc.gateway().jobs().mapAppToImage("sleep", "sleeper");
    apps::installTransformApp(cc.cluster(), cc.store());
    ndn::Name rawName = core::kDataPrefix;
    rawName.append("raw").append("genome");
    (void)cc.store().put(rawName, std::vector<std::uint8_t>(2048, 'A'));
    cc.loadGenomicsDatasets(catalog);
    cc.enableCheckpointServing();
    clusters.push_back(&cc);
    overlay.connect("client-host", name, net::LinkParams{sim::Duration::millis(5)});
    overlay.connect("ops-host", name, net::LinkParams{sim::Duration::millis(5)});
  }
  overlay.connect("east", "west", net::LinkParams{sim::Duration::millis(10)});
  for (const char* name : kClusters) overlay.announceCluster(name);

  telemetry::MetricsRegistry registry;
  overlay.attachTelemetry(registry);
  tenants.attachTelemetry(registry);

  telemetry::TelemetryCollectorOptions collectorOptions;
  collectorOptions.scrapeInterval = sim::Duration::seconds(5);
  telemetry::TelemetryCollector collector(*overlay.topology().node("ops-host"),
                                          collectorOptions);
  for (const char* name : kClusters) collector.watchCluster(name);
  collector.attachTelemetry(registry);

  telemetry::AlertEngine alerts(sim);
  alerts.setValueSource(telemetry::collectorValueSource(collector));
  alerts.addThresholdRule("west-unhealthy", "west/health",
                          telemetry::AlertComparison::kBelow, 0.5);
  alerts.attachTelemetry(registry);

  // Replica plane + checkpoints.
  replica::PlacementPolicy policy;
  std::vector<std::unique_ptr<replica::ReplicaCatalog>> catalogs;
  std::vector<std::unique_ptr<replica::TransferScheduler>> schedulers;
  std::vector<std::unique_ptr<migrate::CheckpointManager>> checkpoints;
  migrate::CheckpointOptions ckptOptions;
  ckptOptions.interval = sim::Duration::seconds(60);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    catalogs.push_back(std::make_unique<replica::ReplicaCatalog>(
        clusters[i]->forwarder(), kClusters[i]));
    schedulers.push_back(std::make_unique<replica::TransferScheduler>(
        clusters[i]->forwarder(), clusters[i]->store(), kClusters[i],
        replica::TransferOptions{}, catalogs.back().get()));
    checkpoints.push_back(std::make_unique<migrate::CheckpointManager>(
        clusters[i]->cluster(), clusters[i]->store(), ckptOptions,
        catalogs.back().get(), &policy));
    schedulers.back()->attachTelemetry(registry);
    checkpoints.back()->attachTelemetry(registry);
  }
  replica::ReplicaDirectory directory(*overlay.topology().node("ops-host"));
  replica::RepairLoop repair(sim, directory, policy);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    directory.watchCluster(kClusters[i]);
    repair.addScheduler(kClusters[i], schedulers[i].get());
  }
  directory.attachTelemetry(registry);
  repair.attachTelemetry(registry);

  core::LidcClient ops(*overlay.topology().node("ops-host"), "ops", {}, /*seed=*/3);
  ops.attachTelemetry(registry);
  migrate::MigrationCoordinator coordinator(ops, /*placement=*/nullptr, &directory);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    coordinator.addScheduler(kClusters[i], schedulers[i].get());
  }
  coordinator.routeInstaller = [&overlay](const std::string& oldCluster,
                                          const std::string& oldJobId,
                                          const std::string& target) {
    overlay.topology().installRoutesTo(core::makeStatusName(oldCluster, oldJobId),
                                       target);
  };
  coordinator.attachTelemetry(registry);

  // Users: one untenanted with hedging and breakers, two tenanted.
  std::vector<std::unique_ptr<core::LidcClient>> users;
  const char* userTenants[] = {"", "alpha", "beta"};
  for (std::size_t u = 0; u < 3; ++u) {
    core::ClientOptions options;
    options.tenant = userTenants[u];
    options.interestLifetime = sim::Duration::seconds(2);
    options.statusPollInterval = sim::Duration::seconds(2);
    options.maxSubmitRetries = 6;
    options.maxStatusPollFailures = 3;
    options.maxFailovers = 3;
    options.enableHedging = u == 0;
    options.enableCircuitBreaker = u == 0;
    users.push_back(std::make_unique<core::LidcClient>(
        *overlay.topology().node("client-host"), "golden-user-" + std::to_string(u),
        options, /*seed=*/40 + u));
    users.back()->attachTelemetry(registry);
  }
  workflow::WorkflowEngine engine(*users[0]);
  engine.attachTelemetry(registry);

  sim::ChaosEngine chaos(sim, /*seed=*/11);
  net::Topology& topology = overlay.topology();
  chaos.lossBurst("east-loss", *topology.linkBetween("client-host", "east"), at(15),
                  sim::Duration::seconds(20), /*lossRate=*/0.1);
  chaos.slowNode("east-slow", clusters[0]->cluster(), "east-node-1", at(20),
                 sim::Duration::seconds(60), /*factor=*/3.0);
  chaos.drain("east-drain", at(150), [&coordinator] { coordinator.drainCluster("east"); });
  chaos.clusterCrash("west-crash", clusters[1]->cluster(), at(60));
  chaos.custom("west-cut", at(60), [&overlay] { overlay.failCluster("west"); });
  chaos.custom("west-recover", at(120), [&] {
    for (const std::string& node : clusters[1]->cluster().nodeNames()) {
      clusters[1]->cluster().setNodeReady(node, true);
    }
    overlay.recoverCluster("west");
  });
  chaos.attachTelemetry(registry);

  collector.start();
  directory.start();
  repair.start();
  alerts.start();

  // Sleeper jobs from every user, over-subscribing the tenant queues.
  for (int i = 0; i < 18; ++i) {
    sim.scheduleAt(at(2.0 * i), [&users, i] {
      core::ComputeRequest request;
      request.app = "sleep";
      request.cpu = MilliCpu::fromCores(2);
      request.memory = ByteSize::fromGiB(2);
      request.params["dur_ms"] = std::to_string(1000 + i);
      users[static_cast<std::size_t>(i) % 3]->runToCompletion(
          request, [](Result<core::JobOutcome>) {});
    });
  }
  // One workflow and one checkpointed MiniBlast job the coordinator
  // moves off east when it drains.
  sim.scheduleAt(at(5), [&engine] {
    engine.run(twoStageSpec(), [](Result<workflow::WorkflowOutcome>) {});
  });
  sim.scheduleAt(at(1), [&] {
    core::ComputeRequest request;
    request.app = "BLAST";
    request.cpu = MilliCpu::fromCores(1);
    request.memory = ByteSize::fromGiB(4);
    request.params["srr_id"] = catalog.riceSample().srrId;
    request.params["out"] = "results/golden";
    ops.submit(request, [&coordinator, request](Result<core::SubmitResult> ack) {
      if (ack.ok()) coordinator.track(*ack, request);
    });
  });

  sim.runUntil(at(1800));
  collector.stop();
  directory.stop();
  repair.stop();
  alerts.stop();
  sim.run();
  return Exports{registry.toPrometheus(), registry.toJson()};
}

TEST(GoldenExportTest, SeededChaosRunExportsPinnedBytes) {
  const Exports exports = runGoldenScenario();
  const auto flat = telemetry::parsePrometheusText(exports.prometheus);
  // The run reaches every plane, so the digests pin real values.
  for (const char* series :
       {"lidc_gateway_jobs_launched{cluster=\"east\"}",
        "lidc_client_status_polls{client=\"golden-user-0\"}",
        "lidc_workflow_stages_dispatched", "lidc_chaos_injections",
        "lidc_ckpt_written_total{cluster=\"east\"}",
        "lidc_migrations_planned_total", "lidc_collector_snapshots_fetched_total",
        "lidc_replica_directory_scrapes_total", "lidc_alerts_evaluations_total",
        "lidc_forwarder_in_interests{node=\"client-host\"}"}) {
    ASSERT_TRUE(flat.count(series)) << series;
    EXPECT_GT(flat.at(series), 0.0) << series;
  }
  EXPECT_EQ(fnv1a64(exports.prometheus), 0x83adca2e736dee0bULL) << exports.prometheus;
  EXPECT_EQ(fnv1a64(exports.json), 0xd1af33249a103b22ULL);
}

TEST(GoldenExportTest, SameSeedExportsIdenticalBytes) {
  const Exports first = runGoldenScenario();
  const Exports second = runGoldenScenario();
  EXPECT_EQ(first.prometheus, second.prometheus);
  EXPECT_EQ(first.json, second.json);
}

}  // namespace
}  // namespace lidc
