// MigrationCoordinator — the ops-host half of the migration plane
// (DESIGN.md §14). It watches registered long-running jobs over the
// ordinary status namespace; when a trigger fires — status gone dark
// (cluster crash / blackout), the job terminally Failed, telemetry
// health under the floor, a circuit breaker opening, or an explicit
// operator drain — it:
//
//   1. resolves the latest surviving checkpoint epoch (ReplicaDirectory
//      view when wired, else the anycast-fetched _manifest),
//   2. fetches that epoch once to pin its content digest,
//   3. pre-stages it onto the chosen target through the target's
//      TransferScheduler at high priority,
//   4. re-submits the original request with ckpt=<job>/<epoch>,
//      ckpt_digest=<pin>, ckpt_from=<old cluster> so the target gateway
//      restores instead of restarting and aliases the old job id in the
//      status namespace — pollers follow the move seamlessly.
//
// Target choice leans on AdaptivePlacement state (skip breaker-open /
// unhealthy clusters, prefer the lowest extra route cost) with
// name-ordered determinism; the actual placement is still the network's
// (a gateway without the pre-staged bytes nacks kNoRoute and the
// strategy moves on). Every decision lands in a deterministic
// "t=..s ..." decision log, byte-identical across same-seed runs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "core/checkpoint_format.hpp"
#include "core/client.hpp"
#include "replica/directory.hpp"
#include "replica/scheduler.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace lidc::migrate {

struct MigrationOptions {
  /// Cadence of status probes on tracked jobs (lazy timer: armed only
  /// while at least one job is active, so idle simulations drain).
  sim::Duration probeInterval = sim::Duration::seconds(1);
  /// Consecutive failed probes before a job counts as dark.
  int probeFailureThreshold = 2;
  /// observeHealth() below this triggers migration off the cluster.
  double healthFloor = 0.3;
  /// Per-job migration budget (flapping guard).
  int maxMigrationsPerJob = 2;
  /// Priority of checkpoint pre-stage transfers (repairs run at 10).
  int prestagePriority = 100;
};

struct MigrationCounters {
  telemetry::Counter planned;    // migrations triggered
  telemetry::Counter completed;  // resumed on a new cluster
  telemetry::Counter failed;     // no target / no checkpoint+resubmit failed
  telemetry::Counter coldFallbacks;  // resubmitted without a checkpoint
};

class MigrationCoordinator {
 public:
  /// `placement` (optional) contributes breaker/health/cost state to
  /// target choice; `directory` (optional) resolves the latest
  /// *surviving* checkpoint epoch after a crash.
  MigrationCoordinator(core::LidcClient& client,
                       core::AdaptivePlacement* placement = nullptr,
                       replica::ReplicaDirectory* directory = nullptr,
                       MigrationOptions options = {});
  MigrationCoordinator(const MigrationCoordinator&) = delete;
  MigrationCoordinator& operator=(const MigrationCoordinator&) = delete;

  /// Registers the scheduler staging data onto `cluster`; registered
  /// clusters are also the migration target candidates.
  void addScheduler(const std::string& cluster,
                    replica::TransferScheduler* scheduler);

  /// Starts monitoring a submitted job. `request` must be the original
  /// compute request (the coordinator re-submits it, augmented with the
  /// ckpt params, on migration).
  void track(const core::SubmitResult& ack, core::ComputeRequest request);

  // --- triggers ---------------------------------------------------------

  /// Operator drain: migrate every active job off `cluster` (chaos
  /// kDrain wires here). The cluster stays healthy; when a placement is
  /// attached its breaker cost is applied so new work also steers away.
  void drainCluster(const std::string& cluster);
  /// Telemetry health feed; below the floor, jobs migrate off.
  void observeHealth(const std::string& cluster, double score);
  /// Circuit-breaker feed; an opening breaker migrates jobs off.
  void observeBreaker(const std::string& cluster, bool open);

  [[nodiscard]] const MigrationCounters& counters() const noexcept {
    return *counters_;
  }
  /// Jobs still being monitored (non-terminal).
  [[nodiscard]] std::size_t activeJobs() const;
  /// Deterministic decision log ("t=..s plan|migrate|cold|fail ..."),
  /// byte-identical across same-seed runs.
  [[nodiscard]] const std::string& decisionLog() const noexcept { return log_; }
  /// Current status name of a tracked job by its *original* job id
  /// (follows migrations); empty Name when unknown.
  [[nodiscard]] ndn::Name currentStatusName(const std::string& originalJobId) const;

  /// Installs the old-status-name route network-wide when a migration
  /// lands: (oldCluster, oldJobId, targetCluster). The target gateway
  /// registers the alias on its own forwarder; this hook propagates the
  /// exact 5-component route across the overlay so remote pollers reach
  /// it. Wire to Topology::installRoutesTo.
  std::function<void(const std::string& oldCluster, const std::string& oldJobId,
                     const std::string& targetCluster)>
      routeInstaller;

  /// Exports lidc_migrations_{planned,completed,failed}_total and
  /// lidc_migrations_cold_fallbacks_total into `registry`; with a
  /// tracer, each completed migration records a "migration" span from
  /// plan to resumed ack.
  void attachTelemetry(telemetry::MetricsRegistry& registry,
                       telemetry::Tracer* tracer = nullptr);
  void setFlightRecorder(telemetry::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

 private:
  struct TrackedJob {
    std::string originalJobId;
    std::string jobId;    // current id (changes on migration)
    std::string cluster;  // current cluster
    ndn::Name statusName;
    core::ComputeRequest request;  // original, ckpt-param-free
    int migrations = 0;
    int consecutiveFailures = 0;
    bool active = true;
    bool migrating = false;
    sim::Time planStart;
  };

  void armProbe();
  void probeAll();
  void migrate(const std::shared_ptr<TrackedJob>& job,
               const std::string& reason);
  /// Latest checkpoint epoch with a surviving ready replica (directory
  /// view), 0 when unknown.
  [[nodiscard]] std::uint64_t latestSurvivingEpoch(
      const std::string& jobId) const;
  void resolveEpoch(const std::shared_ptr<TrackedJob>& job,
                    const std::string& reason);
  void prestageAndResubmit(const std::shared_ptr<TrackedJob>& job,
                           const std::string& reason, std::uint64_t epoch,
                           std::uint64_t digest);
  void resubmit(const std::shared_ptr<TrackedJob>& job,
                const std::string& reason, std::uint64_t epoch,
                std::uint64_t digest, const std::string& target);
  /// Cold fallback: no usable checkpoint — resubmit from scratch.
  void resubmitCold(const std::shared_ptr<TrackedJob>& job,
                    const std::string& reason);
  void settleResubmit(const std::shared_ptr<TrackedJob>& job,
                      const std::string& reason, bool restored,
                      Result<core::SubmitResult> ack);
  /// Healthy, breaker-closed candidate with the lowest extra route
  /// cost, excluding `exclude`; ties break by name. Empty when none.
  [[nodiscard]] std::string pickTarget(const std::string& exclude) const;
  void trace(const std::string& line);

  core::LidcClient& client_;
  core::AdaptivePlacement* placement_;
  replica::ReplicaDirectory* directory_;
  MigrationOptions options_;
  std::map<std::string, replica::TransferScheduler*> schedulers_;
  /// original job id -> tracked state (deterministic iteration).
  std::map<std::string, std::shared_ptr<TrackedJob>> jobs_;
  std::map<std::string, double> observed_health_;
  std::map<std::string, bool> breaker_open_;
  telemetry::FlightRecorder* recorder_ = nullptr;
  telemetry::Tracer* tracer_ = nullptr;
  std::shared_ptr<MigrationCounters> counters_ = std::make_shared<MigrationCounters>();
  bool probe_pending_ = false;
  std::string log_;
};

/// AlertEngine value source over a coordinator (pair with a rule like
/// "migrate/failed > 0 for 5s"):
///   "migrate/planned"         — cumulative migrations triggered
///   "migrate/failed"          — cumulative failed migrations
///   "migrate/cold_fallbacks"  — resubmits that lost their checkpoint
[[nodiscard]] telemetry::AlertEngine::ValueSource migrationValueSource(
    const MigrationCoordinator& coordinator);

}  // namespace lidc::migrate
