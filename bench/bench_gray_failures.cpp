// Gray-failure ablation (EXPERIMENTS.md Ablation P).
//
// Fail-stop faults announce themselves; gray failures do not. This
// bench runs the same workload through a three-cluster overlay whose
// nearest cluster goes gray (admits every job, runs none), whose
// second cluster hides a 10x slow node, and whose access links flip
// payload bits at 2% — first with every defense disabled (no on-path
// integrity drops, no watchdog, no breaker, no hedging), then with the
// full defense stack. Reported per mode: completion rate, p50/p99
// end-to-end latency, and the defense counters that explain the gap.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/adaptive.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "sim/chaos.hpp"

namespace {

using namespace lidc;

constexpr int kJobs = 20;
constexpr double kJobSpacingSec = 1.0;

void registerSleeper(core::ComputeCluster& cluster) {
  cluster.cluster().registerApp("sleeper", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::seconds(10);
    return result;
  });
  cluster.gateway().jobs().mapAppToImage("sleep", "sleeper");
}

struct RunStats {
  int completed = 0;
  int failed = 0;
  std::vector<double> latenciesSec;
  std::uint64_t corrupted = 0;
  std::uint64_t integrityDrops = 0;
  std::uint64_t watchdogTimeouts = 0;
  std::uint64_t breakerTrips = 0;
  std::uint64_t hedgesIssued = 0;
  std::uint64_t hedgesWon = 0;
};

RunStats runScenario(bool defended) {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");

  core::ComputeClusterConfig config;
  config.perNode = k8s::Resources{MilliCpu::fromCores(8), ByteSize::fromGiB(32)};
  config.nodeCount = 2;
  config.name = "gray";
  auto& gray = overlay.addCluster(config);
  registerSleeper(gray);
  config.name = "beta";
  auto& beta = overlay.addCluster(config);
  registerSleeper(beta);
  config.name = "alpha";
  auto& alpha = overlay.addCluster(config);
  registerSleeper(alpha);
  overlay.connect("client-host", "gray", net::LinkParams{sim::Duration::millis(5)});
  overlay.connect("client-host", "beta", net::LinkParams{sim::Duration::millis(15)});
  overlay.connect("client-host", "alpha", net::LinkParams{sim::Duration::millis(30)});
  for (const char* name : {"gray", "beta", "alpha"}) overlay.announceCluster(name);

  if (!defended) {
    // Undefended baseline: routers forward corrupt Data untouched and
    // caches keep whatever arrives.
    for (const char* name : {"client-host", "gray", "beta", "alpha"}) {
      auto* node = overlay.topology().node(name);
      node->setDataVerification(false);
      node->cs().setVerification(false);
    }
  }

  core::AdaptivePlacement placement(overlay);
  core::ClientOptions options;
  options.interestLifetime = sim::Duration::seconds(2);
  options.statusPollInterval = sim::Duration::seconds(1);
  options.maxSubmitRetries = 8;
  options.maxStatusPollFailures = 4;
  options.maxFailovers = 4;
  options.deadline = sim::Duration::minutes(5);
  if (defended) {
    options.pendingProgressTtl = sim::Duration::seconds(5);
    options.enableHedging = true;
    options.hedgeDelayFloor = sim::Duration::millis(500);
    options.enableCircuitBreaker = true;
    options.breaker.failureThreshold = 2;
    options.breaker.openDuration = sim::Duration::minutes(5);
    options.breakerListener = [&placement](const std::string& cluster,
                                           core::BreakerState state) {
      placement.observeBreaker(cluster, state == core::BreakerState::kOpen);
      placement.tick();
    };
  }
  core::LidcClient client(*overlay.topology().node("client-host"), "bench",
                          options, /*seed=*/777);

  sim::ChaosEngine chaos(sim, /*seed=*/4242);
  const sim::Time start = sim::Time::fromNanos(0) + sim::Duration::seconds(2);
  const sim::Duration window = sim::Duration::minutes(10);
  for (const char* name : {"gray", "beta", "alpha"}) {
    chaos.corruption(std::string(name) + "-corruption",
                     *overlay.topology().linkBetween("client-host", name), start,
                     window, /*corruptRate=*/0.02);
  }
  chaos.slowNode("beta-limps", beta.cluster(), "beta-node-0", start, window,
                 /*factor=*/10.0);
  chaos.grayGateway("gray-gw", start, window,
                    [&gray](bool on) { gray.gateway().setGrayFailure(on); });

  RunStats stats;
  for (int i = 0; i < kJobs; ++i) {
    const sim::Time submitAt =
        sim::Time::fromNanos(0) + sim::Duration::seconds(kJobSpacingSec * i);
    sim.scheduleAt(submitAt, [&, submitAt] {
      core::ComputeRequest request;
      request.app = "sleep";
      request.cpu = MilliCpu::fromCores(1);
      request.memory = ByteSize::fromGiB(1);
      client.runToCompletion(request, [&, submitAt](Result<core::JobOutcome> r) {
        if (r.ok() && r->finalStatus.state == k8s::JobState::kCompleted) {
          ++stats.completed;
          stats.latenciesSec.push_back((sim.now() - submitAt).toSeconds());
        } else {
          ++stats.failed;
        }
      });
    });
  }
  sim.run();

  for (const char* name : {"gray", "beta", "alpha"}) {
    stats.corrupted +=
        overlay.topology().linkBetween("client-host", name)->packetsCorrupted();
  }
  for (const char* name : {"client-host", "gray", "beta", "alpha"}) {
    stats.integrityDrops += overlay.topology().node(name)->counters().nIntegrityDrops;
  }
  stats.watchdogTimeouts = client.counters().watchdogTimeouts;
  stats.breakerTrips = client.counters().breakerTrips;
  stats.hedgesIssued = client.counters().hedgesIssued;
  stats.hedgesWon = client.counters().hedgesWon;
  (void)alpha;
  return stats;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto index =
      static_cast<std::size_t>(static_cast<double>(samples.size()) * p);
  return samples[std::min(samples.size() - 1, index)];
}

}  // namespace

int main() {
  bench::printHeader(
      "Gray failures: corruption + slow node + gray gateway, defenses off vs on");
  std::printf(
      "workload: %d one-core 10 s jobs, one every %.1f s; nearest cluster\n"
      "goes gray at t=2 s, beta-node-0 limps at 10x, links corrupt 2%% of Data\n\n",
      kJobs, kJobSpacingSec);

  bench::JsonReport report("gray_failures");
  bench::printRow({"mode", "complete", "p50", "p99", "drops", "watchdog", "hedges"});
  bench::printRule(7);
  for (const bool defended : {false, true}) {
    const RunStats stats = runScenario(defended);
    const double p50 = percentile(stats.latenciesSec, 0.50);
    const double p99 = percentile(stats.latenciesSec, 0.99);
    bench::printRow({defended ? "defended" : "undefended",
                     std::to_string(stats.completed) + "/" + std::to_string(kJobs),
                     bench::fmt(p50, "%.1f") + "s", bench::fmt(p99, "%.1f") + "s",
                     std::to_string(stats.integrityDrops),
                     std::to_string(stats.watchdogTimeouts),
                     std::to_string(stats.hedgesIssued)});
    const std::string key = defended ? "on" : "off";
    report.add("completion_rate_" + key,
               static_cast<double>(stats.completed) / kJobs);
    report.add("p50_latency_s_" + key, p50);
    report.add("p99_latency_s_" + key, p99);
    report.add("integrity_drops_" + key, static_cast<double>(stats.integrityDrops));
    report.add("corrupted_" + key, static_cast<double>(stats.corrupted));
    if (defended) {
      report.add("watchdog_timeouts", static_cast<double>(stats.watchdogTimeouts));
      report.add("breaker_trips", static_cast<double>(stats.breakerTrips));
      report.add("hedges_issued", static_cast<double>(stats.hedgesIssued));
      report.add("hedges_won", static_cast<double>(stats.hedgesWon));
    }
  }

  std::printf(
      "\nshape check: undefended, jobs baited by the gray gateway burn their\n"
      "whole deadline before failing and corrupt Data reaches applications;\n"
      "defended, the watchdog converts the stall into a breaker trip that\n"
      "steers placement, on-path verification drops every corrupt packet,\n"
      "and completion returns to %d/%d with bounded p99.\n",
      kJobs, kJobs);
  report.write();
  return 0;
}
