#include "replica/repair.hpp"

namespace lidc::replica {

RepairLoop::RepairLoop(sim::Simulator& sim, ReplicaDirectory& directory,
                       PlacementPolicy& policy, RepairOptions options)
    : sim_(sim), directory_(directory), policy_(policy), options_(options) {}

RepairLoop::~RepairLoop() { stop(); }

void RepairLoop::addScheduler(const std::string& cluster,
                              TransferScheduler* scheduler) {
  schedulers_[cluster] = scheduler;
}

std::size_t RepairLoop::tick() {
  ++passes_;
  const std::string tag = "repair#" + std::to_string(passes_);
  if (options_.supersedePreviousPass && passes_ > 1) {
    const std::string previous = "repair#" + std::to_string(passes_ - 1);
    for (auto& [cluster, scheduler] : schedulers_) {
      scheduler->cancelTag(previous);
    }
  }
  const std::vector<PlacementAction> actions = policy_.plan(directory_);
  counts_->underReplicated = policy_.lastUnderReplicated();
  if (counts_->underReplicated > 0) {
    LIDC_FR_EVENT(recorder_, kWarn, "replica",
                  "repair pass " + std::to_string(passes_) + ": " +
                      std::to_string(counts_->underReplicated) +
                      " under-replicated dataset(s), " +
                      std::to_string(actions.size()) + " transfer(s)");
  }
  std::size_t enqueued = 0;
  for (const PlacementAction& action : actions) {
    auto it = schedulers_.find(action.destination);
    if (it == schedulers_.end()) continue;
    ++enqueued;
    counts_->enqueued.inc();
    TransferRequest request;
    request.priority = options_.priority + action.priority;
    request.tag = tag;
    it->second->enqueue(
        action.dataset, std::move(request),
        [counts = counts_](Status status, std::uint64_t) {
          if (status.ok()) {
            counts->completed.inc();
          } else if (status.code() != StatusCode::kAborted) {
            // Superseded repairs are not failures; the newer pass owns
            // the dataset now.
            counts->failed.inc();
          }
        });
  }
  return enqueued;
}

void RepairLoop::start() {
  if (running_) return;
  running_ = true;
  tick_ = sim_.scheduleAfter(options_.interval, [this] {
    if (!running_) return;
    tick();
    running_ = false;
    start();
  });
}

void RepairLoop::stop() {
  running_ = false;
  tick_.cancel();
}

void RepairLoop::attachTelemetry(telemetry::MetricsRegistry& registry) {
  registry.adopt("lidc_replica_repaired_total", {}, {counts_, &counts_->completed});
  registry.adopt("lidc_replica_repairs_enqueued_total", {},
                 {counts_, &counts_->enqueued});
  registry.adopt("lidc_replica_repair_failures_total", {}, {counts_, &counts_->failed});
  collector_ = registry.registerCollector([this, &registry] {
    registry.gauge("lidc_replica_under_replicated")
        .set(static_cast<double>(counts_->underReplicated));
  });
}

telemetry::AlertEngine::ValueSource repairValueSource(const RepairLoop& loop) {
  return [&loop] {
    return std::map<std::string, double>{
        {"replica/under_replicated",
         static_cast<double>(loop.counters().underReplicated)},
        {"replica/repairs_failed", static_cast<double>(loop.counters().failed)},
    };
  };
}

}  // namespace lidc::replica
