// Repair loop — the anti-entropy half of the replica plane. Each pass
// re-plans placement against the directory's observed state; any
// dataset below its target replication factor (a cluster died with its
// lake, a replica went stale) gets repair transfers enqueued on the
// destination clusters' schedulers — anycast retrieval pulls the bytes
// from whichever surviving lake still holds them. Repairs carry a
// per-pass tag, so a newer plan supersedes (cancels) an older one
// instead of racing it. FR events narrate each pass; the
// lidc_replica_under_replicated gauge (and repairValueSource) lets an
// AlertEngine rule fire on sustained under-replication and clear once
// repairs land.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "replica/policy.hpp"
#include "replica/scheduler.hpp"
#include "sim/simulator.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/flight_recorder.hpp"

namespace lidc::replica {

struct RepairOptions {
  /// Period of start()ed anti-entropy passes.
  sim::Duration interval = sim::Duration::seconds(2);
  /// Priority of repair transfers (above default-0 pre-stages).
  int priority = 10;
  /// Cancel the previous pass's still-queued repairs before enqueuing a
  /// new plan (the new plan reflects newer truth).
  bool supersedePreviousPass = true;
};

struct RepairCounters {
  telemetry::Counter enqueued;
  telemetry::Counter completed;
  telemetry::Counter failed;
  std::size_t underReplicated = 0;  // datasets the latest pass found short
};

class RepairLoop {
 public:
  RepairLoop(sim::Simulator& sim, ReplicaDirectory& directory,
             PlacementPolicy& policy, RepairOptions options = {});
  /// Cancels the pass timer, which holds `this`.
  ~RepairLoop();
  RepairLoop(const RepairLoop&) = delete;
  RepairLoop& operator=(const RepairLoop&) = delete;

  /// Registers the scheduler that stages data onto `cluster`. Plans
  /// targeting clusters without a scheduler are logged and skipped.
  void addScheduler(const std::string& cluster, TransferScheduler* scheduler);

  /// Runs one anti-entropy pass; returns repairs enqueued.
  std::size_t tick();

  /// Periodic passes on the sim clock; stop() before draining the sim.
  void start();
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  [[nodiscard]] std::uint64_t passes() const noexcept { return passes_; }
  [[nodiscard]] const RepairCounters& counters() const noexcept { return *counts_; }

  /// Exports lidc_replica_repaired_total / _repairs_enqueued_total /
  /// _repair_failures_total and the lidc_replica_under_replicated gauge
  /// into `registry`.
  void attachTelemetry(telemetry::MetricsRegistry& registry);
  void setFlightRecorder(telemetry::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

 private:
  sim::Simulator& sim_;
  ReplicaDirectory& directory_;
  PlacementPolicy& policy_;
  RepairOptions options_;
  std::map<std::string, TransferScheduler*> schedulers_;
  telemetry::FlightRecorder* recorder_ = nullptr;
  bool running_ = false;
  sim::EventHandle tick_;
  std::uint64_t passes_ = 0;
  /// Shared with in-flight repair callbacks and the registry, which may
  /// outlive the loop.
  std::shared_ptr<RepairCounters> counts_ = std::make_shared<RepairCounters>();
  telemetry::CollectorHandle collector_;
};

/// AlertEngine value source over a repair loop:
///   "replica/under_replicated" — datasets below target (latest pass)
///   "replica/repairs_failed"   — cumulative failed repairs
[[nodiscard]] telemetry::AlertEngine::ValueSource repairValueSource(
    const RepairLoop& loop);

}  // namespace lidc::replica
