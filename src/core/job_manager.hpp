// JobManager: translates validated ComputeRequests into Kubernetes Jobs
// on one cluster and answers status queries in LIDC's four states
// (paper SIV-A: Completed / Failed / Running / Pending).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/status.hpp"
#include "core/semantic_name.hpp"
#include "k8s/cluster.hpp"

namespace lidc::core {

/// LIDC job status as reported to clients.
struct JobStatusInfo {
  k8s::JobState state = k8s::JobState::kPending;
  std::string message;
  std::string resultPath;       // data name of the output when Completed
  std::uint64_t outputBytes = 0;
  sim::Duration runtime;        // start -> completion (terminal states)
};

class JobManager {
 public:
  JobManager(k8s::Cluster& cluster, std::string namespaceName = "ndnk8s")
      : cluster_(cluster), namespace_(std::move(namespaceName)) {}

  /// Maps a semantic application name (what users write, e.g. "BLAST")
  /// to a cluster application image (e.g. "magic-blast").
  void mapAppToImage(const std::string& app, const std::string& image) {
    app_images_[app] = image;
  }
  [[nodiscard]] bool hasApp(const std::string& app) const;

  /// Launches a K8s Job for the request; returns the LIDC job id.
  /// Multi-tenant isolation (the paper's multi-organizational setting):
  /// a "tenant=<name>" parameter routes the job into namespace
  /// "tenant-<name>", where per-organization ResourceQuotas apply.
  /// `priorityClass` flows onto the JobSpec so higher classes jump the
  /// scheduler's unschedulable queue under saturation.
  Result<std::string> submit(const ComputeRequest& request,
                             int priorityClass = 0);

  /// The namespace a request's job would run in.
  [[nodiscard]] std::string namespaceFor(const ComputeRequest& request) const;

  [[nodiscard]] Result<JobStatusInfo> status(const std::string& jobId) const;

  /// Drops all bookkeeping for a job id: subsequent status() queries
  /// return NotFound. Used by the gateway's status GC after
  /// statusRetention and by its orphan reaper to retire jobs stuck
  /// non-terminal past their TTL. A finished (Completed or Failed) k8s
  /// Job goes with its status entry (TTL-after-finished, driven by the
  /// retention); a Pending or Running one is never deleted.
  void forget(const std::string& jobId);

  [[nodiscard]] const std::string& namespaceName() const noexcept {
    return namespace_;
  }
  [[nodiscard]] k8s::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] std::uint64_t submitted() const noexcept { return next_job_seq_; }

  /// Defaults applied when the request omits resources.
  static constexpr std::uint64_t kDefaultCpuMillicores = 1000;
  static ByteSize defaultMemory() { return ByteSize::fromGiB(1); }

 private:
  k8s::Cluster& cluster_;
  std::string namespace_;
  std::map<std::string, std::string> app_images_;
  /// jobId -> namespace the job lives in (job name == jobId).
  std::map<std::string, std::string> job_namespaces_;
  std::uint64_t next_job_seq_ = 0;
};

}  // namespace lidc::core
