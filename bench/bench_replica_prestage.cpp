// Replica plane bench (Ablation R).
//
// Claim: predictive pre-staging — the WorkflowEngine's lookahead hooks
// feeding a PrestageCoordinator — moves a stage's far-cluster inputs
// while its producer is still running, so dispatches read locally and
// the makespan drops versus reactive dispatch-time staging; and after a
// cluster crash the RepairLoop restores every dataset's target
// replication factor from the survivors in bounded time. Both runs are
// deterministic: the same seed replays a byte-identical engine trace
// and scheduler event log. Results land in BENCH_replica_prestage.json.
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/transform_app.hpp"
#include "bench_util.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "datalake/file_server.hpp"
#include "k8s/pvc.hpp"
#include "net/topology.hpp"
#include "replica/directory.hpp"
#include "replica/prestage.hpp"
#include "replica/repair.hpp"
#include "workflow/engine.hpp"

namespace {

using namespace lidc;

constexpr std::size_t kRawBytes = 256 * 1024;
constexpr std::size_t kRefBytes = 1024 * 1024;  // per far-cluster input

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

/// prep -> analyze -> report; analyze and report each consume a 1 MiB
/// reference input that lives only on the far cluster.
workflow::WorkflowSpec chainSpec() {
  workflow::WorkflowSpec spec;
  spec.id = "ablr";
  const char* refs[] = {nullptr, "refs/panel", "refs/annotations"};
  const char* names[] = {"prep", "analyze", "report"};
  for (int i = 0; i < 3; ++i) {
    workflow::StageSpec stage;
    stage.name = names[i];
    stage.app = "transform";
    stage.cpu = MilliCpu::fromCores(2);
    stage.memory = ByteSize::fromGiB(1);
    if (i == 0) {
      stage.lakeInputs = {"raw/sample"};
    } else {
      stage.lakeInputs = {refs[i]};
      stage.stageInputs = {{names[i - 1], "input"}};
    }
    spec.addStage(stage);
  }
  return spec;
}

struct PrestageRun {
  workflow::WorkflowOutcome outcome;
  std::uint64_t prestagedBytes = 0;
  std::string signature;  // engine trace + scheduler event log
};

/// Fresh two-cluster world per run: "near" (5 ms) runs the work, "far"
/// (40 ms) holds the reference inputs. Deterministic per configuration.
std::optional<PrestageRun> runPrestageScenario(bool lookahead) {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  std::map<std::string, core::ComputeCluster*> clusters;
  for (const std::string& name : {std::string("near"), std::string("far")}) {
    core::ComputeClusterConfig config;
    config.name = name;
    config.nodeCount = 4;
    config.perNode = k8s::Resources{MilliCpu::fromCores(8), ByteSize::fromGiB(16)};
    auto& cc = overlay.addCluster(config);
    // ~8 s per 256 KiB stage, so lookahead has a producer runtime to
    // hide the ~1 MiB reference transfers under.
    apps::TransformConfig slow;
    slow.bytesPerSecondPerCore = 32'768.0;
    slow.scalingEfficiency = 0.0;
    apps::installTransformApp(cc.cluster(), cc.store(), slow);
    clusters[name] = &cc;
  }
  overlay.connect("client-host", "near", net::LinkParams{sim::Duration::millis(5)});
  overlay.connect("client-host", "far", net::LinkParams{sim::Duration::millis(40)});
  overlay.announceCluster("near");
  overlay.announceCluster("far");

  (void)clusters["near"]->store().put(
      lakeName("raw/sample"), std::vector<std::uint8_t>(kRawBytes, 0x11));
  (void)clusters["far"]->store().put(
      lakeName("refs/panel"), std::vector<std::uint8_t>(kRefBytes, 0x22));
  (void)clusters["far"]->store().put(
      lakeName("refs/annotations"), std::vector<std::uint8_t>(kRefBytes, 0x33));

  core::ClientOptions clientOptions;
  clientOptions.statusPollInterval = sim::Duration::seconds(1);
  core::LidcClient client(*overlay.topology().node("client-host"), "bench-user",
                          clientOptions, /*seed=*/777);

  replica::TransferScheduler scheduler(clusters["near"]->forwarder(),
                                       clusters["near"]->store(), "near",
                                       replica::TransferOptions{});
  replica::PrestageCoordinator coordinator(scheduler, clusters["near"]->store());

  workflow::WorkflowOptions options;
  if (lookahead) {
    options.prestageHook = [&coordinator](const std::string& consumer,
                                          const std::vector<std::string>& inputs) {
      coordinator.prestage(consumer, lakeUris(inputs));
    };
  }
  options.ensureInputsLocal = [&coordinator](
                                  const std::string& stage,
                                  const std::vector<std::string>& inputs,
                                  std::function<void(std::uint64_t)> done) {
    coordinator.ensureLocal(stage, lakeUris(inputs), std::move(done));
  };
  workflow::WorkflowEngine engine(client, std::move(options));

  std::optional<PrestageRun> result;
  engine.run(chainSpec(), [&](Result<workflow::WorkflowOutcome> r) {
    if (r.ok()) result = PrestageRun{std::move(r).value(), 0, ""};
  });
  sim.run();
  if (result.has_value()) {
    result->prestagedBytes = scheduler.bytesMoved();
    result->signature = result->outcome.trace + scheduler.eventLog();
  }
  return result;
}

/// Crash-recovery half: datasets replicated on {east, west}, east's
/// routes vanish, the RepairLoop re-replicates onto south. Returns the
/// seconds from crash until every dataset is back at factor 2, plus the
/// repairs completed (negative recovery on failure).
struct RepairRun {
  double recoverySeconds = -1.0;
  std::uint64_t repairsCompleted = 0;
};

RepairRun runRepairScenario() {
  const ndn::Name dataPrefix = core::kDataPrefix;
  sim::Simulator sim;
  net::Topology topology(sim);
  topology.addNode("ops");
  struct Site {
    std::unique_ptr<k8s::PersistentVolumeClaim> pvc;
    std::unique_ptr<datalake::ObjectStore> store;
    std::unique_ptr<datalake::FileServer> server;
    std::unique_ptr<replica::ReplicaCatalog> catalog;
    std::unique_ptr<replica::TransferScheduler> scheduler;
  };
  std::map<std::string, Site> sites;
  for (const std::string& name : {std::string("east"), std::string("west"),
                                  std::string("south")}) {
    ndn::Forwarder& node = topology.addNode(name);
    topology.connect("ops", name, net::LinkParams{sim::Duration::millis(10)});
    Site& site = sites[name];
    site.pvc = std::make_unique<k8s::PersistentVolumeClaim>(
        name + "-lake", ByteSize::fromMiB(16));
    site.store = std::make_unique<datalake::ObjectStore>(*site.pvc);
    site.server =
        std::make_unique<datalake::FileServer>(node, *site.store, dataPrefix);
    site.catalog = std::make_unique<replica::ReplicaCatalog>(node, name);
    ndn::Name prefix = replica::kReplicaPrefix;
    prefix.append(name);
    topology.installRoutesTo(prefix, name);
  }

  const std::vector<ndn::Name> datasets{ndn::Name("/ndn/k8s/data/alpha"),
                                        ndn::Name("/ndn/k8s/data/beta")};
  for (const std::string& holder : {std::string("east"), std::string("west")}) {
    for (const ndn::Name& dataset : datasets) {
      (void)sites[holder].store->put(dataset,
                                     std::vector<std::uint8_t>(256 * 1024, 0x42));
    }
    sites[holder].catalog->syncFromStore(*sites[holder].store, dataPrefix);
    topology.installRoutesTo(dataPrefix, holder);
  }
  for (const std::string& name : {std::string("west"), std::string("south")}) {
    sites[name].scheduler = std::make_unique<replica::TransferScheduler>(
        *topology.node(name), *sites[name].store, name,
        replica::TransferOptions{}, sites[name].catalog.get());
  }

  replica::ReplicaDirectory directory(*topology.node("ops"));
  for (const auto& [name, site] : sites) directory.watchCluster(name);
  replica::PlacementPolicy policy;
  for (const ndn::Name& dataset : datasets) {
    for (int i = 0; i < 3; ++i) policy.recordAccess(dataset);
  }
  replica::RepairLoop repair(sim, directory, policy);
  repair.addScheduler("west", sites["west"].scheduler.get());
  repair.addScheduler("south", sites["south"].scheduler.get());

  directory.start();
  repair.start();
  sim.runUntil(sim::Time() + sim::Duration::seconds(6));

  // East crashes off the network.
  ndn::Name eastReplicaPrefix = replica::kReplicaPrefix;
  eastReplicaPrefix.append("east");
  topology.uninstallRoutesTo(eastReplicaPrefix, "east");
  topology.uninstallRoutesTo(dataPrefix, "east");
  const sim::Time crashedAt = sim.now();

  RepairRun run;
  const sim::Time deadline = crashedAt + sim::Duration::seconds(60);
  bool degradationSeen = false;
  while (sim.now() < deadline) {
    sim.runUntil(sim.now() + sim::Duration::millis(250));
    // East's replicas keep counting until the directory ages it into
    // stale; recovery only starts once the degradation is observable.
    if (!degradationSeen) {
      degradationSeen = directory.isStale("east");
      continue;
    }
    bool restored = true;
    for (const ndn::Name& dataset : datasets) {
      if (directory.replicationFactor(dataset) < 2) restored = false;
    }
    if (restored) {
      run.recoverySeconds = (sim.now() - crashedAt).toSeconds();
      break;
    }
  }
  repair.stop();
  directory.stop();
  sim.run();
  run.repairsCompleted = repair.counters().completed;
  return run;
}

}  // namespace

int main() {
  using bench::fmt;

  bench::printHeader("Ablation R: predictive pre-staging vs reactive staging");
  std::printf("3-stage chain, %zu KiB far-cluster input per late stage, "
              "two clusters (5 ms / 40 ms)\n",
              kRefBytes / 1024);

  const auto reactive = runPrestageScenario(/*lookahead=*/false);
  const auto lookahead = runPrestageScenario(/*lookahead=*/true);
  const auto replay = runPrestageScenario(/*lookahead=*/true);
  if (!reactive || !lookahead || !replay || !reactive->outcome.succeeded ||
      !lookahead->outcome.succeeded || !replay->outcome.succeeded) {
    std::printf("FATAL: a workflow run did not complete\n");
    return 1;
  }

  const double reactiveMakespan = reactive->outcome.makespan.toSeconds();
  const double lookaheadMakespan = lookahead->outcome.makespan.toSeconds();
  bench::printRow({"mode", "makespan_s", "dispatch_bytes", "prestaged_bytes"});
  bench::printRule(4);
  bench::printRow({"reactive", fmt(reactiveMakespan),
                   std::to_string(reactive->outcome.dispatchBytesMoved),
                   std::to_string(reactive->prestagedBytes)});
  bench::printRow({"lookahead", fmt(lookaheadMakespan),
                   std::to_string(lookahead->outcome.dispatchBytesMoved),
                   std::to_string(lookahead->prestagedBytes)});
  std::printf("speedup: %sx\n", fmt(reactiveMakespan / lookaheadMakespan).c_str());

  const bool deterministic = lookahead->signature == replay->signature;

  bench::printHeader("post-crash re-replication (RepairLoop)");
  const auto repairRun = runRepairScenario();
  std::printf("recovery: %s s after crash, repairs completed: %llu\n",
              fmt(repairRun.recoverySeconds).c_str(),
              static_cast<unsigned long long>(repairRun.repairsCompleted));

  bench::JsonReport report("replica_prestage");
  report.add("reactive_makespan_s", reactiveMakespan);
  report.add("lookahead_makespan_s", lookaheadMakespan);
  report.add("speedup", reactiveMakespan / lookaheadMakespan);
  report.add("reactive_dispatch_bytes",
             static_cast<double>(reactive->outcome.dispatchBytesMoved));
  report.add("lookahead_dispatch_bytes",
             static_cast<double>(lookahead->outcome.dispatchBytesMoved));
  report.add("lookahead_prestaged_bytes",
             static_cast<double>(lookahead->prestagedBytes));
  report.add("crash_recovery_s", repairRun.recoverySeconds);
  report.add("repairs_completed",
             static_cast<double>(repairRun.repairsCompleted));
  report.add("deterministic", deterministic ? 1.0 : 0.0);
  report.write();

  // Self-checks: the claims this ablation exists to defend.
  const bool prestagingFaster = lookaheadMakespan < reactiveMakespan;
  const bool dispatchLocal = lookahead->outcome.dispatchBytesMoved == 0 &&
                             reactive->outcome.dispatchBytesMoved > 0;
  const bool recovered =
      repairRun.recoverySeconds > 0 && repairRun.repairsCompleted >= 2;
  std::printf("\npre-staging faster: %s; dispatch reads local: %s; "
              "crash recovered: %s; deterministic replay: %s\n",
              prestagingFaster ? "yes" : "NO (regression)",
              dispatchLocal ? "yes" : "NO (regression)",
              recovered ? "yes" : "NO (regression)",
              deterministic ? "yes" : "NO (regression)");
  return prestagingFaster && dispatchLocal && recovered && deterministic ? 0 : 1;
}
