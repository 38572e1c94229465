// control_plane: thousands of short sleeper jobs, no host compute, over
// the 3-cluster edge/regional/cloud overlay of bench_load_sweep. Arrivals
// saturate the edge cluster, so work spills outward on capacity nacks.
// Half the jobs take the untenanted /ndn/k8s/compute path, 30% the QoS
// /ndn/k8s/submit/<tenant> path, and 20% repeat one of a few canonical
// requests with cache bypass off, so result-cache and CS hits occur.
//
// Host time here is all small-packet work: Name/TLV, PIT/FIB/CS, digest,
// simulator timers, gateway admission and the k8s job lifecycle.
#include <memory>

#include "bench.hpp"
#include "core/client.hpp"
#include "core/compute_cluster.hpp"

namespace lidcbench {

namespace {

constexpr std::size_t kJobs = 2000;
constexpr double kWindowSeconds = 2500.0;  // 0.8 arrivals per sim second
constexpr std::uint64_t kCacheKeys = 40;

enum class Path { kCompute, kAlpha, kBeta, kCached };

/// Independent users: three on the untenanted path, one per tenant, and
/// one repeating canonical requests. Each polls at its own period, so
/// observed completion times do not all sit on one polling grid.
struct User {
  const char* name;
  Path path;
  const char* tenant;
  bool bypassCache;
  int pollMs;
};
constexpr User kUsers[] = {
    {"cp-user-a", Path::kCompute, "", true, 1600},
    {"cp-user-b", Path::kCompute, "", true, 2000},
    {"cp-user-c", Path::kCompute, "", true, 2400},
    {"cp-alpha", Path::kAlpha, "alpha", true, 1700},
    {"cp-beta", Path::kBeta, "beta", true, 2300},
    {"cp-cached", Path::kCached, "", false, 1900},
};

struct PlannedJob {
  sim::Time due;
  std::size_t user = 0;
  std::uint64_t durMs = 0;
  std::uint64_t key = 0;
};

/// All inputs of the workload, drawn from the seed alone.
std::vector<PlannedJob> plan(std::uint64_t seed) {
  Rng rng(seed ^ 0xc0a7001ULL);
  std::vector<PlannedJob> jobs;
  for (sim::Time due : arrivals(rng, kJobs, sim::Duration::seconds(kWindowSeconds))) {
    PlannedJob job;
    job.due = due;
    const double u = rng.uniformDouble();
    job.user = u < 0.5    ? rng.uniform(3)  // the three untenanted users
               : u < 0.65 ? 3
               : u < 0.8  ? 4
                          : 5;
    job.key = rng.uniform(kCacheKeys);
    // 20-40 s of sim runtime. A cached request must repeat exactly, so
    // its runtime follows its key.
    const bool cached = kUsers[job.user].path == Path::kCached;
    job.durMs = 20'000 + (cached ? job.key * 499 : rng.uniform(20'000));
    jobs.push_back(job);
  }
  return jobs;
}

core::ClientOptions clientOptions(const User& user) {
  core::ClientOptions options;
  options.tenant = user.tenant;
  options.bypassCache = user.bypassCache;
  // QoS gateways hold the ack until launch; give queued submits time.
  options.interestLifetime = sim::Duration::seconds(user.path == Path::kCompute ||
                                                            user.path == Path::kCached
                                                        ? 10
                                                        : 60);
  options.statusPollInterval = sim::Duration::millis(user.pollMs);
  options.maxSubmitRetries = 12;
  options.backoffMax = sim::Duration::seconds(8);
  return options;
}

}  // namespace

RoundResult runControlPlane(RoundContext& ctx) {
  RoundResult out;
  const std::int64_t setupStart = hostNs();

  sim::Simulator sim;
  qos::TenantRegistry tenants;
  for (const auto& [id, weight] : {std::pair{"alpha", 2.0}, std::pair{"beta", 1.0}}) {
    qos::TenantSpec spec;
    spec.id = id;
    spec.weight = weight;
    (void)tenants.registerTenant(spec);
  }
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  struct Site {
    const char* name;
    int linkMs;
    int nodes;
    std::uint64_t coresPerNode;
  };
  // The nearest cluster is small: it saturates first.
  const Site sites[] = {{"edge", 5, 1, 8}, {"regional", 25, 2, 8}, {"cloud", 70, 4, 16}};
  for (const Site& site : sites) {
    core::ComputeClusterConfig config;
    config.name = site.name;
    config.nodeCount = site.nodes;
    config.perNode = k8s::Resources{MilliCpu::fromCores(site.coresPerNode),
                                    ByteSize::fromGiB(64)};
    config.tenants = &tenants;
    // Short per-tenant queues: a full edge queue nacks and the submit
    // spills outward like an untenanted one.
    config.admission.maxQueuePerTenant = 2;
    config.admission.maxQueueTotal = 4;
    installSleeper(overlay.addCluster(config), ctx);
    overlay.connect("client-host", site.name,
                    net::LinkParams{sim::Duration::millis(site.linkMs)});
    overlay.announceCluster(site.name);
  }
  overlay.setPlacementStrategy(core::PlacementStrategy::kBestRoute);

  ndn::Forwarder& host = *overlay.topology().node("client-host");
  std::vector<std::unique_ptr<core::LidcClient>> clients;
  for (const User& user : kUsers) {
    clients.push_back(std::make_unique<core::LidcClient>(
        host, user.name, clientOptions(user), ctx.seed + clients.size() + 1));
  }
  const std::vector<PlannedJob> planned = plan(ctx.seed);
  const auto freeAtStart = freeResources(overlay);
  out.setupS = static_cast<double>(hostNs() - setupStart) / 1e9;

  // --- timed phase: open-loop arrivals in sim time, run to quiescence ---
  JobLedger ledger;
  const std::int64_t start = hostNs();
  for (const PlannedJob& job : planned) {
    const std::size_t id = ledger.add(job.due);
    sim.scheduleAt(job.due, [&, id, job] {
      ScopedSpan span("client.runToCompletion", "core", static_cast<std::int64_t>(id));
      core::LidcClient& client = *clients[job.user];
      core::ComputeRequest request;
      request.app = "sleep";
      request.cpu = MilliCpu::fromCores(2);
      request.memory = ByteSize::fromGiB(2);
      request.params["dur_ms"] = std::to_string(job.durMs);
      if (kUsers[job.user].path == Path::kCached) {
        request.params["key"] = std::to_string(job.key);
      }
      client.runToCompletion(request, [&, id](Result<core::JobOutcome> r) {
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
  runChunks(
      sim, ctx, [&] { return ledger.allSettled(); },
      sim::Time() + sim::Duration::hours(6), [&] { sampleQueues(overlay, ctx); });
  drain(sim, ctx);
  out.hostS = static_cast<double>(hostNs() - start) / 1e9;

  // --- checks and counters (untimed) ---
  checkExactlyOnce(ledger, ctx);
  checkQuiescent(sim, overlay, freeAtStart, &tenants, ctx);
  readOverlayCounters(overlay, &tenants, out.counters, out.linkBytes);
  out.jobs = ledger.jobs();
  for (const JobRecord& job : out.jobs) out.workUnits += job.completed ? 1 : 0;
  return out;
}

}  // namespace lidcbench
