// Transfer scheduler — the staging engine of the replica plane. One
// instance per destination cluster pulls named objects over the
// overlay with the CS-friendly segment retriever and publishes them
// into the local lake:
//
//   * priority-ordered: repairs outrank pre-stages; FIFO within a
//     priority level (deterministic).
//   * deduplicating: a second enqueue of an in-flight or queued
//     dataset joins the existing transfer instead of fetching twice.
//   * bounded: at most maxConcurrent fetches in flight, and an
//     optional bandwidth budget serializes starts so staging cannot
//     starve the overlay (a transfer of B bytes holds the budget for
//     B / bandwidthBytesPerSec after it lands).
//   * cancellable: a superseded plan cancels its tag; queued entries
//     abort immediately, in-flight ones discard their bytes on
//     completion.
//   * space-aware: puts that the lake rejects for capacity (or quota)
//     surface ResourceExhausted to the requester and count as rejects
//     instead of silently growing the lake.
//
// Every transition appends a "t=..s <event>" line to eventLog(), which
// is byte-identical across same-seed runs (the determinism guard pins
// this).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "datalake/retriever.hpp"
#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"
#include "replica/catalog.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/flow.hpp"
#include "telemetry/metrics.hpp"

namespace lidc::replica {

struct TransferOptions {
  /// Concurrent fetches in flight.
  std::size_t maxConcurrent = 2;
  /// Staging bandwidth budget in bytes/s; 0 = unlimited.
  std::uint64_t bandwidthBytesPerSec = 0;
  /// Tenant charged for staged bytes when a request names none.
  std::string tenant;
  datalake::RetrieveOptions retrieve;
};

/// Per-enqueue parameters.
struct TransferRequest {
  int priority = 0;    // higher dequeues first
  std::string tag;     // plan label; cancelTag() sweeps it
  std::string tenant;  // overrides TransferOptions::tenant when set
};

struct TransferCounters {
  telemetry::Counter staged;
  telemetry::Counter bytesMoved;
  telemetry::Counter localHits;  // already in the local lake
  telemetry::Counter joined;  // deduplicated onto a queued/in-flight transfer
  telemetry::Counter cancelled;
  telemetry::Counter capacityRejects;
  telemetry::Counter failures;
};

class TransferScheduler {
 public:
  /// Fires with the terminal status and the bytes this transfer moved
  /// over the overlay (0 for local hits and joins that rode an
  /// existing transfer... joins report the shared transfer's bytes).
  using DoneCallback = std::function<void(Status, std::uint64_t bytes)>;
  using Request = TransferRequest;

  /// Attaches to the destination cluster's forwarder; fetches travel
  /// through the overlay like any client retrieval. `catalog` (may be
  /// null) is kept in sync: staging on start, ready on landing.
  TransferScheduler(ndn::Forwarder& forwarder, datalake::ObjectStore& store,
                    std::string clusterName, TransferOptions options = {},
                    ReplicaCatalog* catalog = nullptr);
  TransferScheduler(const TransferScheduler&) = delete;
  TransferScheduler& operator=(const TransferScheduler&) = delete;

  void enqueue(const ndn::Name& dataset, Request request = {},
               DoneCallback done = nullptr);

  /// Cancels a queued transfer (false when the dataset is not queued —
  /// in-flight transfers finish but discard their bytes).
  bool cancel(const ndn::Name& dataset);
  /// Cancels every queued/in-flight transfer carrying `tag`; returns
  /// how many were swept.
  std::size_t cancelTag(const std::string& tag);

  [[nodiscard]] const std::string& clusterName() const noexcept {
    return cluster_name_;
  }
  [[nodiscard]] std::size_t queuedCount() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t activeCount() const noexcept { return active_; }
  [[nodiscard]] const TransferCounters& counters() const noexcept { return *counters_; }
  [[nodiscard]] std::uint64_t bytesMoved() const noexcept {
    return counters_->bytesMoved;
  }
  [[nodiscard]] std::uint64_t localHits() const noexcept {
    return counters_->localHits;
  }
  [[nodiscard]] std::uint64_t failures() const noexcept { return counters_->failures; }

  /// Deterministic event trace ("t=..s enqueue|join|hit|start|done|
  /// fail|cancel|reject-capacity ..." lines).
  [[nodiscard]] const std::string& eventLog() const noexcept { return log_; }

  /// Exports lidc_replica_staged_total / lidc_replica_bytes_moved_total
  /// / lidc_replica_capacity_rejected_total /
  /// lidc_replica_stage_failures_total (labeled by cluster) into
  /// `registry`; the series keep their last values once the scheduler
  /// is gone.
  void attachTelemetry(telemetry::MetricsRegistry& registry);
  void setFlightRecorder(telemetry::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }
  /// Routes staged-byte accounting through the cluster's flow plane:
  /// every landed transfer is recorded once under (group="staging",
  /// tenant, tag), so bytesMoved() and the flow ledger agree by
  /// construction (the parity test pins this). Fetch Interests also
  /// carry the tenant/tag flow label for on-path link attribution.
  void setFlowAccountant(telemetry::FlowAccountant* flow) noexcept {
    flow_ = flow;
  }

 private:
  struct Entry {
    ndn::Name dataset;
    int priority = 0;
    std::string tag;
    std::string tenant;
    std::uint64_t order = 0;  // enqueue sequence; FIFO within priority
    bool cancelled = false;
    std::vector<DoneCallback> callbacks;
  };

  void pump();
  void startTransfer(std::shared_ptr<Entry> entry);
  void settle(const std::shared_ptr<Entry>& entry, Status status,
              std::uint64_t bytes);
  void trace(const std::string& line);

  ndn::Forwarder& forwarder_;
  datalake::ObjectStore& store_;
  std::string cluster_name_;
  TransferOptions options_;
  ReplicaCatalog* catalog_;
  std::shared_ptr<ndn::AppFace> face_;
  std::unique_ptr<datalake::Retriever> retriever_;
  telemetry::FlightRecorder* recorder_ = nullptr;
  telemetry::FlowAccountant* flow_ = nullptr;

  std::deque<std::shared_ptr<Entry>> queue_;
  std::vector<std::shared_ptr<Entry>> inflight_;
  std::size_t active_ = 0;
  std::uint64_t next_order_ = 0;
  /// Bandwidth gate: no new transfer starts before this instant.
  sim::Time gate_;
  bool pump_armed_ = false;

  std::shared_ptr<TransferCounters> counters_ = std::make_shared<TransferCounters>();
  std::string log_;
};

}  // namespace lidc::replica
