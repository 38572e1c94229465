#include "migrate/checkpoint.hpp"

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"

namespace lidc::migrate {

CheckpointManager::CheckpointManager(k8s::Cluster& cluster,
                                     datalake::ObjectStore& store,
                                     CheckpointOptions options,
                                     replica::ReplicaCatalog* catalog,
                                     replica::PlacementPolicy* policy)
    : cluster_(cluster),
      store_(store),
      options_(options),
      catalog_(catalog),
      policy_(policy) {
  cluster_.onJobExecuted([this](const k8s::Job& job,
                                const k8s::AppResult& result) {
    onExecuted(job, result);
  });
}

void CheckpointManager::onExecuted(const k8s::Job& job,
                                   const k8s::AppResult& result) {
  if (!result.checkpointPlan || !result.status.ok()) return;
  counters_->plansTracked.inc();
  auto state = std::make_shared<PlanState>();
  state->jobId = job.name();
  state->ns = job.namespaceName();
  state->app = job.spec().app;
  state->start = cluster_.simulator().now();
  state->runtime = result.runtime;
  state->plan = result.checkpointPlan;
  state->nextAt = state->start + options_.interval;
  scheduleNext(std::move(state));
}

void CheckpointManager::scheduleNext(std::shared_ptr<PlanState> state) {
  if (state->stopped) return;
  // No write at-or-after completion: the result itself supersedes it.
  if (state->nextAt - state->start >= state->runtime) return;
  const sim::Duration delay = state->nextAt - cluster_.simulator().now();
  cluster_.simulator().scheduleAfter(delay, [this, state] {
    writeEpoch(state);
    state->nextAt = state->nextAt + options_.interval;
    scheduleNext(state);
  });
}

sim::Duration CheckpointManager::writeCost(std::size_t bytes) const {
  return options_.writeFixedCost +
         sim::Duration::seconds(static_cast<double>(bytes) /
                                options_.writeBandwidthBytesPerSec);
}

void CheckpointManager::writeEpoch(const std::shared_ptr<PlanState>& state) {
  // Only a live run checkpoints: the job may have failed with its
  // cluster, been drained away, or completed off-schedule.
  const k8s::Job* job = cluster_.job(state->ns, state->jobId);
  if (job == nullptr || job->status().state != k8s::JobState::kRunning) {
    state->stopped = true;
    return;
  }
  const sim::Time now = cluster_.simulator().now();
  const double progress =
      state->runtime.toSeconds() <= 0.0
          ? 1.0
          : (now - state->start).toSeconds() / state->runtime.toSeconds();
  auto payload = state->plan(progress);
  const sim::Duration cost = writeCost(payload.size());
  const sim::Duration remaining = (state->start + state->runtime) - now;
  char line[160];
  if (options_.costAware && remaining < cost) {
    // Endgame: re-running the tail is cheaper than writing it out. All
    // later writes would be even deeper in the endgame — stop here.
    counters_->skippedEndgame.inc();
    state->stopped = true;
    std::snprintf(line, sizeof(line), "t=%.6fs skip-endgame job=%s epoch=%llu",
                  now.toSeconds(), state->jobId.c_str(),
                  static_cast<unsigned long long>(state->epoch + 1));
    trace(line);
    return;
  }

  const std::uint64_t epoch = ++state->epoch;
  const std::uint64_t bytes = payload.size();
  const std::uint64_t digest = core::ckptDigest(payload);
  const ndn::Name name = core::makeCkptName(state->jobId, epoch);
  if (Status put = store_.put(name, std::move(payload)); !put.ok()) {
    LIDC_FR_EVENT(recorder_, kWarn, "ckpt",
                  cluster_.name() + " ckpt-write-failed " + state->jobId + "/" +
                      std::to_string(epoch) + ": " + put.toString());
    return;
  }
  core::CkptManifest manifest;
  manifest.jobId = state->jobId;
  manifest.app = state->app;
  manifest.epoch = epoch;
  manifest.bytes = bytes;
  manifest.digest = digest;
  manifest.progressPermille = static_cast<std::uint32_t>(
      std::min(1000.0, std::max(0.0, progress * 1000.0)));
  (void)store_.putText(core::makeCkptManifestName(state->jobId),
                       core::encodeCkptManifest(manifest));

  counters_->written.inc();
  counters_->bytes.inc(bytes);
  overhead_ += cost;
  if (catalog_ != nullptr) {
    catalog_->markReady(name, bytes);
    catalog_->markReady(core::makeCkptManifestName(state->jobId),
                        core::encodeCkptManifest(manifest).size());
  }
  // Heat past the policy's hot threshold, so the repair loop keeps a
  // survivor copy of the live checkpoint.
  if (policy_ != nullptr) policy_->recordAccess(name, options_.heatWeight);

  // Retention: drop epochs older than the window from lake + catalog.
  if (epoch > options_.retainEpochs) {
    const ndn::Name old =
        core::makeCkptName(state->jobId, epoch - options_.retainEpochs);
    (void)store_.remove(old);
    if (catalog_ != nullptr) catalog_->erase(old);
  }

  std::snprintf(line, sizeof(line), "t=%.6fs ckpt job=%s epoch=%llu bytes=%llu",
                now.toSeconds(), state->jobId.c_str(),
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(bytes));
  trace(line);
  LIDC_FR_EVENT(recorder_, kInfo, "ckpt",
                cluster_.name() + " ckpt " + state->jobId + "/" +
                    std::to_string(epoch) + " bytes=" + std::to_string(bytes));
}

void CheckpointManager::trace(const std::string& line) {
  log_ += line;
  log_ += '\n';
  LIDC_LOG(kDebug, "ckpt") << line;
}

void CheckpointManager::attachTelemetry(telemetry::MetricsRegistry& registry) {
  const telemetry::Labels labels{{"cluster", cluster_.name()}};
  registry.adopt("lidc_ckpt_written_total", labels, {counters_, &counters_->written});
  registry.adopt("lidc_ckpt_bytes_total", labels, {counters_, &counters_->bytes});
  registry.adopt("lidc_ckpt_skipped_endgame_total", labels,
                 {counters_, &counters_->skippedEndgame});
}

}  // namespace lidc::migrate
