#include "migrate/coordinator.hpp"

#include <cstdio>
#include <limits>

#include "common/logging.hpp"
#include "k8s/job.hpp"

namespace lidc::migrate {

namespace {

std::string fmtTime(sim::Time t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t=%.6fs", t.toSeconds());
  return buf;
}

}  // namespace

MigrationCoordinator::MigrationCoordinator(core::LidcClient& client,
                                           core::AdaptivePlacement* placement,
                                           replica::ReplicaDirectory* directory,
                                           MigrationOptions options)
    : client_(client),
      placement_(placement),
      directory_(directory),
      options_(options) {}

void MigrationCoordinator::addScheduler(const std::string& cluster,
                                        replica::TransferScheduler* scheduler) {
  schedulers_[cluster] = scheduler;
}

void MigrationCoordinator::track(const core::SubmitResult& ack,
                                 core::ComputeRequest request) {
  auto job = std::make_shared<TrackedJob>();
  job->originalJobId = ack.jobId;
  job->jobId = ack.jobId;
  job->cluster = ack.cluster;
  job->statusName = ndn::Name(ack.statusName);
  // The request is re-submitted verbatim on migration (plus the ckpt
  // params); strip any request id so the client mints a fresh one and
  // the forwarding strategy is free to steer.
  request.requestId.clear();
  job->request = std::move(request);
  jobs_[job->originalJobId] = job;
  trace(fmtTime(client_.simulator().now()) + " track job=" + job->jobId +
        " cluster=" + job->cluster);
  armProbe();
}

std::size_t MigrationCoordinator::activeJobs() const {
  std::size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->active) ++n;
  }
  return n;
}

ndn::Name MigrationCoordinator::currentStatusName(
    const std::string& originalJobId) const {
  auto it = jobs_.find(originalJobId);
  return it == jobs_.end() ? ndn::Name{} : it->second->statusName;
}

void MigrationCoordinator::armProbe() {
  if (probe_pending_ || activeJobs() == 0) return;
  probe_pending_ = true;
  client_.simulator().scheduleAfter(options_.probeInterval, [this] {
    probe_pending_ = false;
    probeAll();
  });
}

void MigrationCoordinator::probeAll() {
  for (auto& [id, jobRef] : jobs_) {
    auto job = jobRef;
    if (!job->active || job->migrating) continue;
    client_.queryStatus(
        job->statusName, [this, job](Result<core::JobStatusSnapshot> status) {
          if (!job->active || job->migrating) return;
          if (!status) {
            trace(fmtTime(client_.simulator().now()) + " probe-fail job=" +
                  job->jobId + " err=" + status.status().toString());
            if (++job->consecutiveFailures >= options_.probeFailureThreshold) {
              migrate(job, "status-dark");
            }
            return;
          }
          job->consecutiveFailures = 0;
          if (status->state == k8s::JobState::kCompleted) {
            job->active = false;
            trace(fmtTime(client_.simulator().now()) +
                  " done job=" + job->jobId);
          } else if (status->state == k8s::JobState::kFailed) {
            migrate(job, "job-failed");
          }
        });
  }
  armProbe();
}

void MigrationCoordinator::drainCluster(const std::string& cluster) {
  trace(fmtTime(client_.simulator().now()) + " drain cluster=" + cluster);
  LIDC_FR_EVENT(recorder_, kInfo, "migrate", "drain " + cluster);
  breaker_open_[cluster] = true;
  if (placement_ != nullptr) {
    // Administrative breaker: new submits (including our own resubmits)
    // steer away from the draining cluster at the routing layer, even
    // though it is still healthy and holds the checkpoints locally.
    placement_->observeBreaker(cluster, true);
    placement_->tick();
  }
  for (auto& [id, job] : jobs_) {
    if (job->active && !job->migrating && job->cluster == cluster) {
      migrate(job, "drain");
    }
  }
}

void MigrationCoordinator::observeHealth(const std::string& cluster,
                                         double score) {
  observed_health_[cluster] = score;
  if (score >= options_.healthFloor) return;
  for (auto& [id, job] : jobs_) {
    if (job->active && !job->migrating && job->cluster == cluster) {
      migrate(job, "health-floor");
    }
  }
}

void MigrationCoordinator::observeBreaker(const std::string& cluster,
                                          bool open) {
  breaker_open_[cluster] = open;
  if (!open) return;
  for (auto& [id, job] : jobs_) {
    if (job->active && !job->migrating && job->cluster == cluster) {
      migrate(job, "breaker-open");
    }
  }
}

void MigrationCoordinator::migrate(const std::shared_ptr<TrackedJob>& job,
                                   const std::string& reason) {
  if (!job->active || job->migrating) return;
  if (job->migrations >= options_.maxMigrationsPerJob) {
    counters_->failed.inc();
    job->active = false;
    trace(fmtTime(client_.simulator().now()) + " fail job=" + job->jobId +
          " reason=migration-budget");
    LIDC_FR_EVENT(recorder_, kWarn, "migrate",
                  "migration budget exhausted for " + job->jobId);
    return;
  }
  job->migrating = true;
  job->planStart = client_.simulator().now();
  counters_->planned.inc();
  trace(fmtTime(job->planStart) + " plan job=" + job->jobId +
        " reason=" + reason + " from=" + job->cluster);
  LIDC_FR_EVENT(recorder_, kInfo, "migrate",
                "plan " + job->jobId + " reason=" + reason + " from=" +
                    job->cluster);
  resolveEpoch(job, reason);
}

std::uint64_t MigrationCoordinator::latestSurvivingEpoch(
    const std::string& jobId) const {
  if (directory_ == nullptr) return 0;
  std::uint64_t best = 0;
  for (const std::string& uri : directory_->knownDatasets()) {
    auto ref = core::parseCkptName(ndn::Name(uri));
    if (!ref || ref->jobId != jobId || ref->epoch <= best) continue;
    if (directory_->holders(ndn::Name(uri)).empty()) continue;
    best = ref->epoch;
  }
  return best;
}

void MigrationCoordinator::resolveEpoch(const std::shared_ptr<TrackedJob>& job,
                                        const std::string& reason) {
  // Preferred: the directory's view of what actually survived — the
  // manifest replica on a survivor may be stale (the repair loop copies
  // under-replicated objects once; it does not refresh mutations).
  if (const std::uint64_t epoch = latestSurvivingEpoch(job->jobId);
      epoch > 0) {
    client_.fetchData(core::makeCkptName(job->jobId, epoch),
                      [this, job, reason, epoch](
                          Result<std::vector<std::uint8_t>> payload) {
                        if (!payload) {
                          resubmitCold(job, reason + "/ckpt-fetch-failed");
                          return;
                        }
                        prestageAndResubmit(job, reason, epoch,
                                            core::ckptDigest(*payload));
                      });
    return;
  }
  // Fallback: anycast-fetch the _manifest (live source, or a replica
  // that happens to be current) and trust its epoch + digest — the
  // restoring gateway re-verifies the pin against the actual bytes.
  client_.fetchData(
      core::makeCkptManifestName(job->jobId),
      [this, job, reason](Result<std::vector<std::uint8_t>> bytes) {
        if (!bytes) {
          resubmitCold(job, reason + "/no-checkpoint");
          return;
        }
        const std::string text(bytes->begin(), bytes->end());
        auto manifest = core::decodeCkptManifest(text);
        if (!manifest || manifest->epoch == 0) {
          resubmitCold(job, reason + "/bad-manifest");
          return;
        }
        prestageAndResubmit(job, reason, manifest->epoch, manifest->digest);
      });
}

void MigrationCoordinator::prestageAndResubmit(
    const std::shared_ptr<TrackedJob>& job, const std::string& reason,
    std::uint64_t epoch, std::uint64_t digest) {
  const std::string target = pickTarget(job->cluster);
  if (target.empty()) {
    counters_->failed.inc();
    job->migrating = false;
    job->active = false;
    trace(fmtTime(client_.simulator().now()) + " fail job=" + job->jobId +
          " reason=no-target");
    LIDC_FR_EVENT(recorder_, kWarn, "migrate",
                  "no migration target for " + job->jobId);
    return;
  }
  char line[192];
  std::snprintf(line, sizeof(line), "%s resume job=%s epoch=%llu target=%s",
                fmtTime(client_.simulator().now()).c_str(),
                job->jobId.c_str(), static_cast<unsigned long long>(epoch),
                target.c_str());
  trace(line);
  replica::TransferScheduler* scheduler = schedulers_[target];
  replica::TransferRequest staging;
  staging.priority = options_.prestagePriority;
  staging.tag = "migrate/" + job->originalJobId;
  scheduler->enqueue(
      core::makeCkptName(job->jobId, epoch), staging,
      [this, job, reason, epoch, digest, target](Status status,
                                                 std::uint64_t /*bytes*/) {
        if (!status.ok()) {
          resubmitCold(job, reason + "/prestage-failed");
          return;
        }
        resubmit(job, reason, epoch, digest, target);
      });
}

void MigrationCoordinator::resubmit(const std::shared_ptr<TrackedJob>& job,
                                    const std::string& reason,
                                    std::uint64_t epoch, std::uint64_t digest,
                                    const std::string& /*target*/) {
  core::ComputeRequest request = job->request;
  request.params["ckpt"] = job->jobId + "/" + std::to_string(epoch);
  request.params["ckpt_digest"] = std::to_string(digest);
  request.params["ckpt_from"] = job->cluster;
  client_.submit(request,
                 [this, job, reason](Result<core::SubmitResult> ack) {
                   settleResubmit(job, reason, /*restored=*/true,
                                  std::move(ack));
                 });
}

void MigrationCoordinator::resubmitCold(const std::shared_ptr<TrackedJob>& job,
                                        const std::string& reason) {
  counters_->coldFallbacks.inc();
  trace(fmtTime(client_.simulator().now()) + " cold job=" + job->jobId +
        " reason=" + reason);
  LIDC_FR_EVENT(recorder_, kWarn, "migrate",
                "cold fallback for " + job->jobId + " (" + reason + ")");
  client_.submit(job->request,
                 [this, job, reason](Result<core::SubmitResult> ack) {
                   settleResubmit(job, reason, /*restored=*/false,
                                  std::move(ack));
                 });
}

void MigrationCoordinator::settleResubmit(
    const std::shared_ptr<TrackedJob>& job, const std::string& reason,
    bool restored, Result<core::SubmitResult> ack) {
  job->migrating = false;
  if (!ack) {
    counters_->failed.inc();
    job->active = false;
    trace(fmtTime(client_.simulator().now()) + " fail job=" + job->jobId +
          " reason=resubmit: " + ack.status().toString());
    LIDC_FR_EVENT(recorder_, kWarn, "migrate",
                  "resubmit failed for " + job->jobId + ": " +
                      ack.status().toString());
    return;
  }
  const std::string oldCluster = job->cluster;
  const std::string oldJobId = job->jobId;
  job->jobId = ack->jobId;
  job->cluster = ack->cluster;
  job->statusName = ndn::Name(ack->statusName);
  job->consecutiveFailures = 0;
  ++job->migrations;
  counters_->completed.inc();
  trace(fmtTime(client_.simulator().now()) + " migrate job=" + oldJobId +
        " from=" + oldCluster + " to=" + job->cluster +
        " newjob=" + job->jobId + (restored ? "" : " cold"));
  LIDC_FR_EVENT(recorder_, kInfo, "migrate",
                "migrated " + oldJobId + " " + oldCluster + " -> " +
                    job->cluster + " as " + job->jobId +
                    (restored ? "" : " (cold)"));
  if (restored && routeInstaller) {
    // The target gateway registered the 5-component status alias on its
    // own forwarder; propagate the route overlay-wide so remote pollers
    // reach it (exact match beats the dead cluster's 4-component route).
    routeInstaller(oldCluster, oldJobId, job->cluster);
  }
  if (tracer_ != nullptr) {
    tracer_->recordSpan("migration", "migrate", {}, job->planStart,
                        client_.simulator().now(),
                        {{"job", oldJobId},
                         {"from", oldCluster},
                         {"to", job->cluster},
                         {"reason", reason},
                         {"restored", restored ? "true" : "false"}});
  }
  armProbe();
}

std::string MigrationCoordinator::pickTarget(const std::string& exclude) const {
  std::string best;
  std::uint64_t bestCost = std::numeric_limits<std::uint64_t>::max();
  for (const auto& [cluster, scheduler] : schedulers_) {
    if (cluster == exclude || scheduler == nullptr) continue;
    if (auto it = breaker_open_.find(cluster);
        it != breaker_open_.end() && it->second) {
      continue;
    }
    if (auto it = observed_health_.find(cluster);
        it != observed_health_.end() && it->second < options_.healthFloor) {
      continue;
    }
    if (placement_ != nullptr) {
      if (placement_->breakerOpen(cluster)) continue;
      if (placement_->observedHealth(cluster) < options_.healthFloor) continue;
    }
    const std::uint64_t cost =
        placement_ == nullptr ? 0 : placement_->extraCostUs(cluster);
    // Strict < keeps the name-ordered first candidate on ties.
    if (cost < bestCost) {
      bestCost = cost;
      best = cluster;
    }
  }
  return best;
}

void MigrationCoordinator::trace(const std::string& line) {
  log_ += line;
  log_ += '\n';
  LIDC_LOG(kDebug, "migrate") << line;
}

void MigrationCoordinator::attachTelemetry(telemetry::MetricsRegistry& registry,
                                           telemetry::Tracer* tracer) {
  tracer_ = tracer;
  registry.adopt("lidc_migrations_planned_total", {}, {counters_, &counters_->planned});
  registry.adopt("lidc_migrations_completed_total", {},
                 {counters_, &counters_->completed});
  registry.adopt("lidc_migrations_failed_total", {}, {counters_, &counters_->failed});
  registry.adopt("lidc_migrations_cold_fallbacks_total", {},
                 {counters_, &counters_->coldFallbacks});
}

telemetry::AlertEngine::ValueSource migrationValueSource(
    const MigrationCoordinator& coordinator) {
  return [&coordinator] {
    const MigrationCounters& c = coordinator.counters();
    return std::map<std::string, double>{
        {"migrate/planned", static_cast<double>(c.planned)},
        {"migrate/failed", static_cast<double>(c.failed)},
        {"migrate/cold_fallbacks", static_cast<double>(c.coldFallbacks)},
    };
  };
}

}  // namespace lidc::migrate
