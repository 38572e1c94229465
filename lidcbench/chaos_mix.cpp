// chaos_mix: every plane at once — QoS, hedging, circuit breakers,
// health steering, replica repair, and checkpoint + migration — under a
// seeded ChaosEngine schedule: a drain, link flaps, a loss burst, a slow
// node, a gray gateway and a cluster crash with recovery. The job mix is
// short sleeper jobs plus a few small checkpointed MiniBlast jobs that
// the MigrationCoordinator moves off drained and crashed clusters.
//
// It uses the same sim/ndn/core layers as control_plane differently:
// timers are scheduled and then cancelled by retries, hedges and
// watchdogs; nacks, failovers and migrations happen.
#include <memory>

#include "bench.hpp"
#include "core/adaptive.hpp"
#include "core/client.hpp"
#include "core/compute_cluster.hpp"
#include "core/semantic_name.hpp"
#include "genomics/datasets.hpp"
#include "migrate/checkpoint.hpp"
#include "migrate/coordinator.hpp"
#include "replica/catalog.hpp"
#include "replica/directory.hpp"
#include "replica/policy.hpp"
#include "replica/repair.hpp"
#include "replica/scheduler.hpp"
#include "sim/chaos.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/monitor.hpp"

namespace lidcbench {

namespace {

constexpr std::size_t kShortJobs = 1200;
constexpr double kWindowSeconds = 1200.0;
constexpr std::size_t kCheckpointedJobs = 3;
const char* const kClusters[] = {"east", "west", "south"};

struct PlannedJob {
  sim::Time due;
  std::size_t user = 0;  // index into the user clients
  std::uint64_t durMs = 0;
};

std::vector<PlannedJob> plan(std::uint64_t seed) {
  Rng rng(seed ^ 0xc4a05ULL);
  std::vector<PlannedJob> jobs;
  for (sim::Time due : arrivals(rng, kShortJobs, sim::Duration::seconds(kWindowSeconds))) {
    PlannedJob job;
    job.due = due;
    job.user = rng.uniform(3);
    job.durMs = 10'000 + rng.uniform(10'000);
    jobs.push_back(job);
  }
  return jobs;
}

sim::Time at(double seconds) { return sim::Time() + sim::Duration::seconds(seconds); }

}  // namespace

RoundResult runChaosMix(RoundContext& ctx) {
  RoundResult out;
  const std::int64_t setupStart = hostNs();

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
  const genomics::DatasetCatalog catalog(/*scale=*/0.05, ctx.seed);
  std::vector<core::ComputeCluster*> clusters;
  const int linkMs[] = {5, 15, 30};
  for (std::size_t i = 0; i < 3; ++i) {
    core::ComputeClusterConfig config;
    config.name = kClusters[i];
    config.nodeCount = 2;
    config.perNode = k8s::Resources{MilliCpu::fromCores(16), ByteSize::fromGiB(64)};
    config.tenants = &tenants;
    config.admission.maxQueuePerTenant = 2;
    config.admission.maxQueueTotal = 4;
    // ~10 min of sim runtime for the scale-0.05 rice sample.
    config.blast.throughputBytesPerSec = 6e6;
    core::ComputeCluster& cc = overlay.addCluster(config);
    installSleeper(cc, ctx);
    cc.loadGenomicsDatasets(catalog);
    cc.cluster().registerApp(
        "magic-blast",
        timedRunner(genomics::makeMagicBlastRunner(cc.store(), catalog, config.blast),
                    ctx, /*aligner=*/true));
    cc.enableCheckpointServing();
    clusters.push_back(&cc);
    overlay.connect("client-host", kClusters[i],
                    net::LinkParams{sim::Duration::millis(linkMs[i])});
    overlay.connect("ops-host", kClusters[i], net::LinkParams{sim::Duration::millis(5)});
  }
  overlay.connect("east", "west", net::LinkParams{sim::Duration::millis(10)});
  overlay.connect("west", "south", net::LinkParams{sim::Duration::millis(10)});
  for (const char* name : kClusters) overlay.announceCluster(name);

  // Telemetry plane: the collector's health scores steer placement.
  telemetry::MetricsRegistry registry;
  overlay.attachTelemetry(registry);
  telemetry::TelemetryCollectorOptions collectorOptions;
  collectorOptions.scrapeInterval = sim::Duration::seconds(2);
  telemetry::TelemetryCollector collector(*overlay.topology().node("client-host"),
                                          collectorOptions);
  for (const char* name : kClusters) collector.watchCluster(name);
  core::AdaptivePlacement placement(overlay);

  // Replica plane + checkpoints.
  replica::PlacementPolicy policy;
  std::vector<std::unique_ptr<replica::ReplicaCatalog>> catalogs;
  std::vector<std::unique_ptr<replica::TransferScheduler>> schedulers;
  std::vector<std::unique_ptr<migrate::CheckpointManager>> checkpoints;
  migrate::CheckpointOptions ckptOptions;
  ckptOptions.interval = sim::Duration::seconds(120);
  for (std::size_t i = 0; i < 3; ++i) {
    catalogs.push_back(
        std::make_unique<replica::ReplicaCatalog>(clusters[i]->forwarder(), kClusters[i]));
    schedulers.push_back(std::make_unique<replica::TransferScheduler>(
        clusters[i]->forwarder(), clusters[i]->store(), kClusters[i],
        replica::TransferOptions{}, catalogs.back().get()));
    checkpoints.push_back(std::make_unique<migrate::CheckpointManager>(
        clusters[i]->cluster(), clusters[i]->store(), ckptOptions, catalogs.back().get(),
        &policy));
  }
  replica::ReplicaDirectory directory(*overlay.topology().node("ops-host"));
  replica::RepairLoop repair(sim, directory, policy);
  for (std::size_t i = 0; i < 3; ++i) {
    directory.watchCluster(kClusters[i]);
    repair.addScheduler(kClusters[i], schedulers[i].get());
  }

  core::LidcClient ops(*overlay.topology().node("ops-host"), "ops", {}, ctx.seed + 7);
  migrate::MigrationCoordinator coordinator(ops, &placement, &directory);
  for (std::size_t i = 0; i < 3; ++i) {
    coordinator.addScheduler(kClusters[i], schedulers[i].get());
  }
  coordinator.routeInstaller = [&overlay](const std::string& oldCluster,
                                          const std::string& oldJobId,
                                          const std::string& target) {
    overlay.topology().installRoutesTo(core::makeStatusName(oldCluster, oldJobId), target);
  };
  collector.setHealthListener([&](const std::string& cluster, double score) {
    placement.observeHealth(cluster, score);
    placement.tick();
    coordinator.observeHealth(cluster, score);
  });

  // Users: one untenanted, one per tenant; all defenses on.
  std::vector<std::unique_ptr<core::LidcClient>> users;
  const char* userTenants[] = {"", "alpha", "beta"};
  for (std::size_t u = 0; u < 3; ++u) {
    core::ClientOptions options;
    options.tenant = userTenants[u];
    options.interestLifetime = sim::Duration::seconds(u == 0 ? 4 : 30);
    options.statusPollInterval = sim::Duration::millis(1800 + 200 * static_cast<int>(u));
    options.maxSubmitRetries = 10;
    options.backoffMax = sim::Duration::seconds(8);
    options.maxStatusPollFailures = 4;
    options.maxFailovers = 6;
    options.pendingProgressTtl = sim::Duration::seconds(20);
    options.enableHedging = true;
    options.enableCircuitBreaker = true;
    options.breaker.failureThreshold = 2;
    options.breaker.openDuration = sim::Duration::seconds(30);
    options.breakerListener = [&](const std::string& cluster, core::BreakerState state) {
      const bool open = state == core::BreakerState::kOpen;
      placement.observeBreaker(cluster, open);
      placement.tick();
      coordinator.observeBreaker(cluster, open);
    };
    options.healthProvider = [&collector](const std::string& cluster) {
      return collector.healthScore(cluster);
    };
    options.minClusterHealth = 0.3;
    users.push_back(std::make_unique<core::LidcClient>(
        *overlay.topology().node("client-host"), "cm-user-" + std::to_string(u), options,
        ctx.seed + 20 + u));
  }

  // The seeded fault schedule.
  sim::ChaosEngine chaos(sim, ctx.seed);
  net::Topology& topology = overlay.topology();
  chaos.linkFlaps("west-flaps", *topology.linkBetween("client-host", "west"), at(50),
                  at(450), sim::Duration::seconds(60), sim::Duration::seconds(3));
  chaos.slowNode("south-slow", clusters[2]->cluster(), "south-node-0", at(150),
                 sim::Duration::seconds(300), /*factor=*/5.0);
  chaos.drain("east-drain", at(200), [&coordinator] { coordinator.drainCluster("east"); });
  chaos.lossBurst("east-loss", *topology.linkBetween("client-host", "east"), at(400),
                  sim::Duration::seconds(30), /*lossRate=*/0.05);
  chaos.clusterCrash("west-crash", clusters[1]->cluster(), at(500));
  chaos.custom("west-cut", at(500), [&overlay] { overlay.failCluster("west"); });
  chaos.custom("west-recover", at(620), [&] {
    for (const std::string& node : clusters[1]->cluster().nodeNames()) {
      clusters[1]->cluster().setNodeReady(node, true);
    }
    overlay.recoverCluster("west");
  });
  chaos.grayGateway("south-gray", at(700), sim::Duration::seconds(60),
                    [&clusters](bool on) { clusters[2]->gateway().setGrayFailure(on); });

  const std::vector<PlannedJob> planned = plan(ctx.seed);
  const auto freeAtStart = freeResources(overlay);
  out.setupS = static_cast<double>(hostNs() - setupStart) / 1e9;

  // --- timed phase ---
  JobLedger ledger;
  const std::int64_t start = hostNs();
  collector.start();
  directory.start();
  repair.start();
  for (const PlannedJob& job : planned) {
    const std::size_t id = ledger.add(job.due);
    sim.scheduleAt(job.due, [&, id, job] {
      ScopedSpan span("client.runToCompletion", "core", static_cast<std::int64_t>(id));
      core::ComputeRequest request;
      request.app = "sleep";
      request.cpu = MilliCpu::fromCores(2);
      request.memory = ByteSize::fromGiB(2);
      request.params["dur_ms"] = std::to_string(job.durMs);
      users[job.user]->runToCompletion(request, [&, id](Result<core::JobOutcome> r) {
        ScopedSpan callback("client.outcome", "bench", static_cast<std::int64_t>(id));
        const bool ok = r.ok() && r->finalStatus.state == k8s::JobState::kCompleted;
        JobRecord& record = ledger.settle(id, sim.now(), ok);
        if (r.ok()) {
          record.placementS = r->submit.placementLatency.toSeconds();
          record.failovers = r->failovers;
          record.cluster = r->finalStatus.cluster;
        }
      });
    });
  }
  // Checkpointed MiniBlast jobs, tracked by the migration coordinator;
  // completion is observed by polling whatever status name the
  // coordinator currently maps the original job id to.
  std::function<void(std::size_t, std::string, int)> watch;
  watch = [&](std::size_t id, std::string original, int attempt) {
    ops.waitForCompletion(
        coordinator.currentStatusName(original),
        [&, id, original, attempt](Result<core::JobStatusSnapshot> r) {
          if (r.ok() && r->state == k8s::JobState::kCompleted) {
            ledger.settle(id, sim.now(), true).cluster = r->cluster;
          } else if (attempt < 40) {
            // Dark or failed: the coordinator may be migrating it.
            sim.scheduleAfter(sim::Duration::seconds(10),
                              [&, id, original, attempt] { watch(id, original, attempt + 1); });
          } else {
            ledger.settle(id, sim.now(), false);
          }
        });
  };
  for (std::size_t k = 0; k < kCheckpointedJobs; ++k) {
    const sim::Time due = at(10.0 + 10.0 * static_cast<double>(k));
    const std::size_t id = ledger.add(due);
    sim.scheduleAt(due, [&, id] {
      ScopedSpan span("client.submit", "core", static_cast<std::int64_t>(id));
      core::ComputeRequest request;
      request.app = "BLAST";
      request.cpu = MilliCpu::fromCores(1);
      request.memory = ByteSize::fromGiB(4);
      request.params["srr_id"] = catalog.riceSample().srrId;
      request.params["out"] = "results/ckpt-job-" + std::to_string(id);
      ops.submit(request, [&, id, request](Result<core::SubmitResult> ack) {
        ScopedSpan callback("client.ack", "bench", static_cast<std::int64_t>(id));
        if (!ack.ok()) {
          ledger.settle(id, sim.now(), false);
          return;
        }
        coordinator.track(*ack, request);
        watch(id, ack->jobId, 0);
      });
    });
  }
  runChunks(
      sim, ctx, [&] { return ledger.allSettled(); }, at(6 * 3600),
      [&] { sampleQueues(overlay, ctx); });
  collector.stop();
  directory.stop();
  repair.stop();
  drain(sim, ctx);
  out.hostS = static_cast<double>(hostNs() - start) / 1e9;

  // --- checks and counters (untimed) ---
  checkExactlyOnce(ledger, ctx);
  checkQuiescent(sim, overlay, freeAtStart, &tenants, ctx);
  readOverlayCounters(overlay, &tenants, out.counters, out.linkBytes);
  for (std::size_t i = 0; i < 3; ++i) {
    out.counters["replica.bytes_moved"] += static_cast<double>(schedulers[i]->bytesMoved());
    out.counters["replica.local_hits"] += static_cast<double>(schedulers[i]->localHits());
    out.counters["replica.failures"] += static_cast<double>(schedulers[i]->failures());
    out.counters["migrate.ckpt_written"] +=
        static_cast<double>(checkpoints[i]->counters().written);
    out.counters["migrate.ckpt_bytes"] += static_cast<double>(checkpoints[i]->counters().bytes);
  }
  out.counters["migrate.migrations_completed"] =
      static_cast<double>(coordinator.counters().completed);
  out.counters["migrate.migrations_failed"] = static_cast<double>(coordinator.counters().failed);
  out.counters["chaos.injections"] = static_cast<double>(chaos.totalInjections());
  out.jobs = ledger.jobs();
  for (const JobRecord& job : out.jobs) out.workUnits += job.completed ? 1 : 0;
  return out;
}

}  // namespace lidcbench
