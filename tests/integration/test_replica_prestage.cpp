// End-to-end tests of the replica plane wired into the rest of the
// stack. Part one drives the WorkflowEngine's lookahead hooks through a
// PrestageCoordinator: a 3-stage chain whose reference inputs live only
// on the far cluster dispatches every stage with its inputs already
// local (dispatchBytesMoved == 0), while the reactive baseline moves
// the same bytes at dispatch time and pays for it in makespan. Part two
// crashes the seeded cluster out from under a replicated lake: the
// directory ages it into stale, the RepairLoop restores every dataset
// to its target replication factor from the survivor, and the
// under-replication alert fires while degraded and clears once repairs
// land.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/transform_app.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "datalake/file_server.hpp"
#include "k8s/pvc.hpp"
#include "net/topology.hpp"
#include "replica/directory.hpp"
#include "replica/prestage.hpp"
#include "replica/repair.hpp"
#include "telemetry/alerts.hpp"
#include "workflow/engine.hpp"

namespace lidc {
namespace {

const std::string kRawPath = "raw/genome";
const std::string kPanelPath = "refs/panel";
const std::string kAnnotationsPath = "refs/annotations";
constexpr std::size_t kPanelBytes = 2048;
constexpr std::size_t kAnnotationsBytes = 3072;

/// Resolves a workflow-relative dataset path ("refs/panel",
/// "wf/<id>/<stage>") to its full lake name, exactly as the gateway's
/// dataset validator does.
ndn::Name lakeName(const std::string& path) {
  ndn::Name name = core::kDataPrefix;
  std::size_t begin = 0;
  while (begin < path.size()) {
    std::size_t end = path.find('/', begin);
    if (end == std::string::npos) end = path.size();
    if (end > begin) name.append(path.substr(begin, end - begin));
    begin = end + 1;
  }
  return name;
}

std::vector<std::string> lakeUris(const std::vector<std::string>& paths) {
  std::vector<std::string> uris;
  uris.reserve(paths.size());
  for (const std::string& path : paths) uris.push_back(lakeName(path).toUri());
  return uris;
}

/// prep -> analyze -> report. The chain's reference inputs (panel,
/// annotations) are seeded only on the far cluster, so they must cross
/// the overlay before analyze/report can be admitted where prep ran.
workflow::WorkflowSpec chainSpec(const std::string& id) {
  workflow::WorkflowSpec spec;
  spec.id = id;

  workflow::StageSpec prep;
  prep.name = "prep";
  prep.app = "transform";
  prep.cpu = MilliCpu::fromCores(1);
  prep.memory = ByteSize::fromGiB(1);
  prep.lakeInputs = {kRawPath};
  spec.addStage(prep);

  workflow::StageSpec analyze;
  analyze.name = "analyze";
  analyze.app = "transform";
  analyze.cpu = MilliCpu::fromCores(1);
  analyze.memory = ByteSize::fromGiB(1);
  analyze.lakeInputs = {kPanelPath};
  analyze.stageInputs = {{"prep", "input"}};
  spec.addStage(analyze);

  workflow::StageSpec report;
  report.name = "report";
  report.app = "transform";
  report.cpu = MilliCpu::fromCores(1);
  report.memory = ByteSize::fromGiB(1);
  report.lakeInputs = {kAnnotationsPath};
  report.stageInputs = {{"analyze", "input"}};
  spec.addStage(report);
  return spec;
}

/// Two clusters — "east" near (5 ms) runs the work, "west" far (40 ms)
/// holds the reference inputs — with a PrestageCoordinator staging
/// toward east's lake. `lookahead` toggles the predictive half: with it
/// off, only dispatch-time ensureInputsLocal() moves bytes (the
/// reactive baseline).
struct PrestageScenario {
  explicit PrestageScenario(bool lookahead) {
    overlay = std::make_unique<core::ClusterOverlay>(sim);
    overlay->addNode("client-host");
    east = &addTransformCluster("east");
    west = &addTransformCluster("west");
    overlay->connect("client-host", "east",
                     net::LinkParams{sim::Duration::millis(5)});
    overlay->connect("client-host", "west",
                     net::LinkParams{sim::Duration::millis(40)});
    overlay->announceCluster("east");
    overlay->announceCluster("west");

    // The raw input lives where the work runs; the reference inputs of
    // the later stages live only on the far cluster.
    (void)east->store().put(lakeName(kRawPath), bytes(1024, 0x11));
    (void)west->store().put(lakeName(kPanelPath), bytes(kPanelBytes, 0x22));
    (void)west->store().put(lakeName(kAnnotationsPath),
                            bytes(kAnnotationsBytes, 0x33));

    core::ClientOptions clientOptions;
    clientOptions.interestLifetime = sim::Duration::seconds(2);
    clientOptions.statusPollInterval = sim::Duration::seconds(1);
    client = std::make_unique<core::LidcClient>(
        *overlay->topology().node("client-host"), "wf-user", clientOptions,
        /*seed=*/777);

    scheduler = std::make_unique<replica::TransferScheduler>(
        east->forwarder(), east->store(), "east", replica::TransferOptions{});
    coordinator =
        std::make_unique<replica::PrestageCoordinator>(*scheduler, east->store());

    workflow::WorkflowOptions options;
    if (lookahead) {
      options.prestageHook = [this](const std::string& consumer,
                                    const std::vector<std::string>& inputs) {
        coordinator->prestage(consumer, lakeUris(inputs));
      };
    }
    options.ensureInputsLocal = [this](const std::string& stage,
                                       const std::vector<std::string>& inputs,
                                       std::function<void(std::uint64_t)> done) {
      coordinator->ensureLocal(stage, lakeUris(inputs), std::move(done));
    };
    engine = std::make_unique<workflow::WorkflowEngine>(*client, options);
  }

  static std::vector<std::uint8_t> bytes(std::size_t size, std::uint8_t fill) {
    return std::vector<std::uint8_t>(size, fill);
  }

  core::ComputeCluster& addTransformCluster(const std::string& name) {
    core::ComputeClusterConfig config;
    config.name = name;
    config.nodeCount = 2;
    config.perNode = k8s::Resources{MilliCpu::fromCores(4), ByteSize::fromGiB(8)};
    auto& cc = overlay->addCluster(config);
    // Slow transform (~10 s per KiB stage) so pre-staging has a whole
    // producer runtime to hide the reference transfers in.
    apps::TransformConfig slow;
    slow.bytesPerSecondPerCore = 100.0;
    slow.scalingEfficiency = 0.0;
    apps::installTransformApp(cc.cluster(), cc.store(), slow);
    return cc;
  }

  workflow::WorkflowOutcome run() {
    std::optional<Result<workflow::WorkflowOutcome>> result;
    engine->run(chainSpec("wfpre"), [&result](Result<workflow::WorkflowOutcome> r) {
      result = std::move(r);
    });
    sim.run();
    EXPECT_TRUE(result.has_value());
    EXPECT_TRUE(result->ok()) << result->status();
    return result->value();
  }

  sim::Simulator sim;
  std::unique_ptr<core::ClusterOverlay> overlay;
  core::ComputeCluster* east = nullptr;
  core::ComputeCluster* west = nullptr;
  std::unique_ptr<core::LidcClient> client;
  std::unique_ptr<replica::TransferScheduler> scheduler;
  std::unique_ptr<replica::PrestageCoordinator> coordinator;
  std::unique_ptr<workflow::WorkflowEngine> engine;
};

TEST(ReplicaPrestageWorkflowTest, LookaheadKeepsEveryDispatchLocal) {
  PrestageScenario scenario(/*lookahead=*/true);
  const auto outcome = scenario.run();

  EXPECT_TRUE(outcome.succeeded);
  ASSERT_EQ(outcome.stages.size(), 3u);
  for (const auto& [name, st] : outcome.stages) {
    EXPECT_EQ(st.state, workflow::StageState::kCompleted) << name;
    EXPECT_EQ(st.cluster, "east") << name;
    // The acceptance check of predictive pre-staging: zero bytes moved
    // at dispatch, for every stage.
    EXPECT_EQ(st.dispatchStagingBytes, 0u) << name;
  }
  EXPECT_EQ(outcome.dispatchBytesMoved, 0u);

  // The bytes crossed the overlay *before* dispatch, via the lookahead
  // hook: one prestage per far-cluster reference input.
  EXPECT_EQ(scenario.coordinator->prestagesRequested(), 2u);
  EXPECT_EQ(scenario.coordinator->dispatchFetches(), 0u);
  EXPECT_EQ(scenario.scheduler->counters().staged, 2u);
  EXPECT_EQ(scenario.scheduler->bytesMoved(), kPanelBytes + kAnnotationsBytes);
  EXPECT_TRUE(scenario.east->store().contains(lakeName(kPanelPath)));
  EXPECT_TRUE(scenario.east->store().contains(lakeName(kAnnotationsPath)));

  // The engine trace narrates the lookahead firing per consumer.
  EXPECT_NE(outcome.trace.find("prestage analyze inputs=1"), std::string::npos);
  EXPECT_NE(outcome.trace.find("prestage report inputs=1"), std::string::npos);
}

TEST(ReplicaPrestageWorkflowTest, ReactiveBaselineMovesBytesAtDispatch) {
  PrestageScenario scenario(/*lookahead=*/false);
  const auto outcome = scenario.run();

  EXPECT_TRUE(outcome.succeeded);
  // Without lookahead, every far-cluster input is fetched while its
  // stage waits to launch — the cost predictive pre-staging removes.
  EXPECT_EQ(outcome.dispatchBytesMoved, kPanelBytes + kAnnotationsBytes);
  EXPECT_EQ(outcome.stages.at("prep").dispatchStagingBytes, 0u);
  EXPECT_EQ(outcome.stages.at("analyze").dispatchStagingBytes, kPanelBytes);
  EXPECT_EQ(outcome.stages.at("report").dispatchStagingBytes, kAnnotationsBytes);
  EXPECT_EQ(scenario.coordinator->prestagesRequested(), 0u);
  EXPECT_EQ(scenario.coordinator->dispatchFetches(), 2u);
}

TEST(ReplicaPrestageWorkflowTest, LookaheadStrictlyReducesMakespan) {
  PrestageScenario reactive(/*lookahead=*/false);
  const auto reactiveOutcome = reactive.run();
  PrestageScenario lookahead(/*lookahead=*/true);
  const auto lookaheadOutcome = lookahead.run();

  ASSERT_TRUE(reactiveOutcome.succeeded);
  ASSERT_TRUE(lookaheadOutcome.succeeded);
  // Identical work, but the reactive run serializes input staging into
  // the dispatch path while lookahead hides it under producer runtime.
  EXPECT_LT(lookaheadOutcome.makespan.toNanos(),
            reactiveOutcome.makespan.toNanos());
}

// ---------------------------------------------------------------------------
// Part two: crash recovery. Datasets replicated on {east, west}; east
// dies (its routes vanish), the directory ages it into stale, and the
// RepairLoop re-replicates onto south from the surviving copy while the
// under-replication alert fires and then clears.

const ndn::Name kDataPrefix("/ndn/k8s/data");

struct RepairSite {
  std::unique_ptr<k8s::PersistentVolumeClaim> pvc;
  std::unique_ptr<datalake::ObjectStore> store;
  std::unique_ptr<datalake::FileServer> server;
  std::unique_ptr<replica::ReplicaCatalog> catalog;
  std::unique_ptr<replica::TransferScheduler> scheduler;
};

TEST(ReplicaRepairAlertTest, CrashedClusterIsRepairedAndAlertFiresThenClears) {
  sim::Simulator sim;
  net::Topology topology(sim);
  topology.addNode("ops");
  std::map<std::string, RepairSite> sites;
  for (const std::string& name : {std::string("east"), std::string("west"),
                                  std::string("south")}) {
    ndn::Forwarder& node = topology.addNode(name);
    topology.connect("ops", name, net::LinkParams{sim::Duration::millis(10)});
    RepairSite& site = sites[name];
    site.pvc = std::make_unique<k8s::PersistentVolumeClaim>(
        name + "-lake", ByteSize::fromMiB(4));
    site.store = std::make_unique<datalake::ObjectStore>(*site.pvc);
    site.server =
        std::make_unique<datalake::FileServer>(node, *site.store, kDataPrefix);
    site.catalog = std::make_unique<replica::ReplicaCatalog>(node, name);
    ndn::Name prefix = replica::kReplicaPrefix;
    prefix.append(name);
    topology.installRoutesTo(prefix, name);
  }

  // Both datasets start at replication factor 2: east + west.
  const std::vector<ndn::Name> datasets{ndn::Name("/ndn/k8s/data/alpha"),
                                        ndn::Name("/ndn/k8s/data/beta")};
  for (const std::string& holder : {std::string("east"), std::string("west")}) {
    for (const ndn::Name& dataset : datasets) {
      ASSERT_TRUE(sites[holder]
                      .store->put(dataset, std::vector<std::uint8_t>(2048, 0x42))
                      .ok());
    }
    sites[holder].catalog->syncFromStore(*sites[holder].store, kDataPrefix);
    topology.installRoutesTo(kDataPrefix, holder);
  }
  for (const std::string& name : {std::string("west"), std::string("south")}) {
    sites[name].scheduler = std::make_unique<replica::TransferScheduler>(
        *topology.node(name), *sites[name].store, name,
        replica::TransferOptions{}, sites[name].catalog.get());
  }

  replica::ReplicaDirectory directory(*topology.node("ops"));
  for (const auto& [name, site] : sites) directory.watchCluster(name);

  // Hot datasets (3 weighted accesses past the default threshold) want
  // hotReplicas = 2 copies each.
  replica::PlacementPolicy policy;
  for (const ndn::Name& dataset : datasets) {
    for (int i = 0; i < 3; ++i) policy.recordAccess(dataset);
  }
  replica::RepairLoop repair(sim, directory, policy);
  repair.addScheduler("west", sites["west"].scheduler.get());
  repair.addScheduler("south", sites["south"].scheduler.get());

  telemetry::AlertEngineOptions alertOptions;
  alertOptions.evaluateInterval = sim::Duration::millis(500);
  telemetry::AlertEngine alerts(sim, alertOptions);
  alerts.setValueSource(replica::repairValueSource(repair));
  alerts.addThresholdRule("replica-under-replicated",
                          "replica/under_replicated",
                          telemetry::AlertComparison::kAbove, 0.0,
                          /*forCount=*/2);

  directory.start();
  repair.start();
  alerts.start();

  // Healthy steady state: fully replicated, nothing to repair, quiet
  // alert plane.
  sim.runUntil(sim::Time() + sim::Duration::seconds(6));
  for (const ndn::Name& dataset : datasets) {
    EXPECT_EQ(directory.replicationFactor(dataset), 2u) << dataset.toUri();
  }
  EXPECT_EQ(repair.counters().enqueued, 0u);
  EXPECT_EQ(alerts.firingCount(), 0u);

  // East crashes: its catalog and lake fall off the network. The
  // directory's scrapes of east start failing and its replicas age out
  // of the replication factor after the freshness window.
  ndn::Name eastReplicaPrefix = replica::kReplicaPrefix;
  eastReplicaPrefix.append("east");
  topology.uninstallRoutesTo(eastReplicaPrefix, "east");
  topology.uninstallRoutesTo(kDataPrefix, "east");

  sim.runUntil(sim::Time() + sim::Duration::seconds(30));
  alerts.stop();
  repair.stop();
  directory.stop();
  sim.run();

  // The repair loop restored every dataset to its target factor from
  // the surviving copy: south now holds both.
  EXPECT_TRUE(directory.isStale("east"));
  for (const ndn::Name& dataset : datasets) {
    EXPECT_EQ(directory.replicationFactor(dataset), 2u) << dataset.toUri();
    const auto holders = directory.holders(dataset);
    EXPECT_EQ(holders, (std::vector<std::string>{"south", "west"}))
        << dataset.toUri();
    EXPECT_TRUE(sites["south"].store->contains(dataset)) << dataset.toUri();
    EXPECT_EQ(*sites["south"].store->get(dataset),
              *sites["west"].store->get(dataset));
  }
  EXPECT_GE(repair.counters().completed, 2u);
  EXPECT_EQ(repair.counters().underReplicated, 0u);

  // The under-replication alert fired while degraded and cleared once
  // repairs landed.
  EXPECT_GE(alerts.counters().fired, 1u);
  EXPECT_GE(alerts.counters().resolved, 1u);
  EXPECT_EQ(alerts.firingCount(), 0u);
  EXPECT_NE(alerts.serializedLog().find("state=fired"), std::string::npos);
  EXPECT_NE(alerts.serializedLog().find("state=resolved"), std::string::npos);
}

}  // namespace
}  // namespace lidc
