// Destroyed owners: every component that attaches to a MetricsRegistry
// may be destroyed while the registry lives on. Snapshotting and
// exporting afterwards must touch nothing of the destroyed owner (the
// sanitizer build turns a collector left behind into a
// heap-use-after-free), and the owner's series keep their last values.
// One instance per owner that exports into a registry.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/compute_cluster.hpp"
#include "core/gateway.hpp"
#include "core/overlay.hpp"
#include "k8s/cluster.hpp"
#include "k8s/pvc.hpp"
#include "migrate/checkpoint.hpp"
#include "migrate/coordinator.hpp"
#include "qos/admission.hpp"
#include "qos/tenant.hpp"
#include "replica/catalog.hpp"
#include "replica/directory.hpp"
#include "replica/policy.hpp"
#include "replica/repair.hpp"
#include "replica/scheduler.hpp"
#include "sim/chaos.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/flow.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/monitor.hpp"

namespace lidc {
namespace {

using Series = std::map<std::string, double>;

/// Two clusters with replica catalogs, an ops host, and the stand-alone
/// pieces (a lone forwarder and k8s cluster, a staging lake on the ops
/// host) the owners under test are built on. Nothing here attaches to
/// the registry.
struct World {
  World() : overlay(sim), opsPvc("ops-lake", ByteSize::fromMiB(8)), opsStore(opsPvc) {
    qos::TenantSpec alpha;
    alpha.id = "alpha";
    (void)tenants.registerTenant(alpha);
    overlay.addNode("ops-host");
    for (const char* name : {"east", "west"}) {
      core::ComputeClusterConfig config;
      config.name = name;
      config.nodeCount = 1;
      overlay.addCluster(config);
      overlay.connect("ops-host", name, net::LinkParams{sim::Duration::millis(5)});
    }
    overlay.connect("east", "west", net::LinkParams{sim::Duration::millis(10)});
    overlay.announceCluster("east");
    overlay.announceCluster("west");
    (void)overlay.cluster("west")->store().put(ndn::Name("/ndn/k8s/data/a"),
                                               std::vector<std::uint8_t>(2048, 0x5a));
    eastCatalog = std::make_unique<replica::ReplicaCatalog>(
        overlay.cluster("east")->forwarder(), "east");
    westCatalog = std::make_unique<replica::ReplicaCatalog>(
        overlay.cluster("west")->forwarder(), "west");
  }

  ndn::Forwarder& ops() { return *overlay.topology().node("ops-host"); }

  sim::Simulator sim;
  qos::TenantRegistry tenants;
  core::ClusterOverlay overlay;
  k8s::PersistentVolumeClaim opsPvc;
  datalake::ObjectStore opsStore;
  std::unique_ptr<replica::ReplicaCatalog> eastCatalog;
  std::unique_ptr<replica::ReplicaCatalog> westCatalog;
  replica::PlacementPolicy policy;
  ndn::Forwarder lone{"lone", sim};
  k8s::Cluster loneCluster{"lone", sim};
  std::unique_ptr<replica::ReplicaDirectory> directory;
  std::unique_ptr<core::LidcClient> client;
};

struct OwnerCase {
  std::string name;
  /// Series compared before and after the owner dies ("" = all).
  std::string prefix;
  /// Builds the owner on `world`, attaches it to `registry` and drives
  /// some activity; the returned pointer is the owner's only handle.
  std::function<std::shared_ptr<void>(World&, telemetry::MetricsRegistry&)> make;
  /// Owner-specific expectations on its last exported series.
  std::function<void(const Series&)> check;
};

void PrintTo(const OwnerCase& owner, std::ostream* os) { *os << owner.name; }

const std::vector<OwnerCase>& ownerCases() {
  static const std::vector<OwnerCase> cases = {
      {"Forwarder", "",
       [](World& w, telemetry::MetricsRegistry& registry) {
         auto forwarder = std::make_shared<ndn::Forwarder>("doomed", w.sim);
         forwarder->attachTelemetry(registry);
         return std::shared_ptr<void>(forwarder);
       },
       nullptr},
      {"Gateway", "",
       [](World& w, telemetry::MetricsRegistry& registry) {
         auto gateway = std::make_shared<core::Gateway>(w.lone, w.loneCluster,
                                                        core::ValidatorRegistry{});
         gateway->attachTelemetry(registry);
         return std::shared_ptr<void>(gateway);
       },
       nullptr},
      {"ComputeCluster", "lidc_cluster_",
       [](World& w, telemetry::MetricsRegistry& registry) {
         core::ComputeClusterConfig config;
         config.name = "doomed";
         auto cluster = std::make_shared<core::ComputeCluster>(w.lone, config);
         cluster->attachTelemetry(registry);
         return std::shared_ptr<void>(cluster);
       },
       [](const Series& last) {
         EXPECT_EQ(last.at("lidc_cluster_nodes_total{cluster=\"doomed\"}"), 1.0);
       }},
      {"AdmissionController", "",
       [](World& w, telemetry::MetricsRegistry& registry) {
         auto admission =
             std::make_shared<qos::AdmissionController>(w.sim, w.tenants, "doomed");
         admission->attachTelemetry(registry);
         qos::AdmissionJob job;
         job.tenant = "ghost";
         EXPECT_EQ(admission->offer(std::move(job)),
                   qos::AdmitDecision::kRejectedUnknownTenant);
         return std::shared_ptr<void>(admission);
       },
       [](const Series& last) {
         EXPECT_EQ(last.at("lidc_qos_rejected_total{cluster=\"doomed\",reason="
                           "\"unknown-tenant\",tenant=\"unknown\"}"),
                   1.0);
       }},
      {"TenantRegistry", "",
       [](World&, telemetry::MetricsRegistry& registry) {
         auto tenants = std::make_shared<qos::TenantRegistry>();
         qos::TenantSpec spec;
         spec.id = "beta";
         (void)tenants->registerTenant(spec);
         EXPECT_TRUE(tenants->chargePublish("beta", 100).ok());
         tenants->attachTelemetry(registry);
         return std::shared_ptr<void>(tenants);
       },
       [](const Series& last) {
         EXPECT_EQ(last.at("lidc_qos_publish_bytes{tenant=\"beta\"}"), 100.0);
       }},
      {"CheckpointManager", "",
       [](World& w, telemetry::MetricsRegistry& registry) {
         core::ComputeCluster& east = *w.overlay.cluster("east");
         auto manager =
             std::make_shared<migrate::CheckpointManager>(east.cluster(), east.store());
         manager->attachTelemetry(registry);
         return std::shared_ptr<void>(manager);
       },
       nullptr},
      {"MigrationCoordinator", "",
       [](World& w, telemetry::MetricsRegistry& registry) {
         w.client = std::make_unique<core::LidcClient>(w.ops(), "ops");
         auto coordinator = std::make_shared<migrate::MigrationCoordinator>(*w.client);
         coordinator->attachTelemetry(registry);
         return std::shared_ptr<void>(coordinator);
       },
       nullptr},
      {"TransferScheduler", "",
       [](World& w, telemetry::MetricsRegistry& registry) {
         auto scheduler = std::make_shared<replica::TransferScheduler>(
             w.ops(), w.opsStore, "ops", replica::TransferOptions{});
         scheduler->attachTelemetry(registry);
         scheduler->enqueue(ndn::Name("/ndn/k8s/data/a"));
         w.sim.run();
         return std::shared_ptr<void>(scheduler);
       },
       [](const Series& last) {
         ASSERT_EQ(last.size(), 4u);
         EXPECT_EQ(last.at("lidc_replica_staged_total{cluster=\"ops\"}"), 1.0);
         EXPECT_EQ(last.at("lidc_replica_bytes_moved_total{cluster=\"ops\"}"), 2048.0);
       }},
      {"RepairLoop", "",
       [](World& w, telemetry::MetricsRegistry& registry) {
         w.directory = std::make_unique<replica::ReplicaDirectory>(w.ops());
         w.directory->watchCluster("east");
         w.directory->watchCluster("west");
         auto repair = std::make_shared<replica::RepairLoop>(w.sim, *w.directory, w.policy);
         repair->attachTelemetry(registry);
         repair->start();
         // The next pass is armed for t=4 s; destroying the loop must
         // cancel it.
         w.sim.runUntil(w.sim.now() + sim::Duration::seconds(3));
         EXPECT_EQ(repair->passes(), 1u);
         return std::shared_ptr<void>(repair);
       },
       [](const Series& last) {
         EXPECT_EQ(last.at("lidc_replica_repair_failures_total"), 0.0);
       }},
      {"ReplicaDirectory", "",
       [](World& w, telemetry::MetricsRegistry& registry) {
         w.eastCatalog->markReady(ndn::Name("/ndn/k8s/data/a"), 100);
         auto directory = std::make_shared<replica::ReplicaDirectory>(w.ops());
         directory->watchCluster("east");
         directory->watchCluster("west");
         directory->attachTelemetry(registry);
         directory->scrapeOnce();
         w.sim.run();
         return std::shared_ptr<void>(directory);
       },
       [](const Series& last) {
         EXPECT_EQ(last.at("lidc_replica_directory_scrapes_total"), 2.0);
       }},
      {"TelemetryCollector", "",
       [](World& w, telemetry::MetricsRegistry& registry) {
         auto collector = std::make_shared<telemetry::TelemetryCollector>(w.ops());
         collector->watchCluster("east");
         collector->attachTelemetry(registry);
         return std::shared_ptr<void>(collector);
       },
       nullptr},
      {"AlertEngine", "",
       [](World& w, telemetry::MetricsRegistry& registry) {
         auto alerts = std::make_shared<telemetry::AlertEngine>(w.sim);
         alerts->setValueSource([] { return Series{{"load", 2.0}}; });
         alerts->addThresholdRule("overload", "load",
                                  telemetry::AlertComparison::kAbove, 1.0);
         alerts->attachTelemetry(registry);
         EXPECT_EQ(alerts->evaluate(), 1);
         return std::shared_ptr<void>(alerts);
       },
       [](const Series& last) {
         EXPECT_EQ(last.at("lidc_alerts_fired_total"), 1.0);
         EXPECT_EQ(last.at("lidc_alerts_firing"), 1.0);
       }},
      {"ChaosEngine", "",
       [](World& w, telemetry::MetricsRegistry& registry) {
         auto chaos = std::make_shared<sim::ChaosEngine>(w.sim, /*seed=*/1);
         chaos->custom("poke", sim::Time() + sim::Duration::seconds(1), [] {});
         chaos->attachTelemetry(registry);
         w.sim.run();
         return std::shared_ptr<void>(chaos);
       },
       [](const Series& last) { EXPECT_EQ(last.at("lidc_chaos_injections"), 1.0); }},
      {"FlowAccountant", "",
       [](World& w, telemetry::MetricsRegistry& registry) {
         auto flow = std::make_shared<telemetry::FlowAccountant>(w.sim);
         (void)flow->registerLink("link://doomed");
         flow->attachTelemetry(registry);
         return std::shared_ptr<void>(flow);
       },
       nullptr},
  };
  return cases;
}

Series withPrefix(const Series& all, const std::string& prefix) {
  Series out;
  for (const auto& [series, value] : all) {
    if (series.starts_with(prefix)) out.emplace(series, value);
  }
  return out;
}

class DestroyedOwnerTest : public ::testing::TestWithParam<OwnerCase> {};

TEST_P(DestroyedOwnerTest, RegistryOutlivesItAndKeepsItsLastValues) {
  const OwnerCase& param = GetParam();
  World world;
  telemetry::MetricsRegistry registry;
  std::shared_ptr<void> owner = param.make(world, registry);
  const Series last = withPrefix(registry.flatten(), param.prefix);
  ASSERT_FALSE(last.empty());
  if (param.check) param.check(last);

  owner.reset();
  (void)registry.snapshot();
  const std::string text = registry.toPrometheus();
  EXPECT_EQ(withPrefix(telemetry::parsePrometheusText(text), param.prefix), last);

  // Nothing the owner armed may fire into it after its death.
  world.sim.run();
  EXPECT_TRUE(world.sim.empty());
}

INSTANTIATE_TEST_SUITE_P(Owners, DestroyedOwnerTest, ::testing::ValuesIn(ownerCases()),
                         [](const ::testing::TestParamInfo<OwnerCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace lidc
