#include "core/job_manager.hpp"

#include <algorithm>
#include <utility>

#include "common/strings.hpp"
#include "qos/tenant.hpp"

namespace lidc::core {

std::string JobManager::namespaceFor(const ComputeRequest& request) const {
  auto it = request.params.find("tenant");
  if (it == request.params.end()) return namespace_;
  return "tenant-" + it->second;
}

bool JobManager::hasApp(const std::string& app) const {
  auto it = app_images_.find(app);
  const std::string& image = it == app_images_.end() ? app : it->second;
  return cluster_.hasApp(image);
}

Result<std::string> JobManager::submit(const ComputeRequest& request,
                                       int priorityClass) {
  auto imageIt = app_images_.find(request.app);
  const std::string image =
      imageIt == app_images_.end() ? request.app : imageIt->second;
  if (!cluster_.hasApp(image)) {
    return Status::NotFound("cluster " + cluster_.name() +
                            " does not serve application '" + request.app + "'");
  }

  if (auto it = request.params.find("tenant");
      it != request.params.end() && !qos::isValidTenantId(it->second)) {
    return Status::InvalidArgument("invalid tenant name '" + it->second +
                                   "' (lowercase alphanumerics and '-' only)");
  }
  const std::string ns = namespaceFor(request);

  const std::string jobId =
      "job-" + cluster_.name() + "-" + std::to_string(++next_job_seq_);

  k8s::JobSpec spec;
  spec.app = image;
  spec.priorityClass = priorityClass;
  spec.requests.cpu = request.cpu.millicores() > 0
                          ? request.cpu
                          : MilliCpu(kDefaultCpuMillicores);
  spec.requests.memory =
      request.memory.bytes() > 0 ? request.memory : defaultMemory();
  spec.args = request.params;
  for (std::size_t i = 0; i < request.datasets.size(); ++i) {
    spec.args["dataset" + std::to_string(i)] = request.datasets[i];
  }
  // Deterministic result location keyed by the job id.
  spec.args.try_emplace("out", "results/" + jobId);
  spec.pvcName = "datalake-pvc";
  // Users may request pod retries via the semantic name ("retries=2");
  // capped to keep a hostile request from pinning resources forever.
  spec.backoffLimit = 0;
  if (auto it = request.params.find("retries"); it != request.params.end()) {
    if (auto retries = strings::parseUint(it->second)) {
      spec.backoffLimit = static_cast<int>(std::min<std::uint64_t>(*retries, 5));
    }
  }

  auto job = cluster_.createJob(ns, jobId, std::move(spec));
  if (!job.ok()) return job.status();
  jobs_[jobId] = Placement{ns};
  return jobId;
}

void JobManager::forget(const std::string& jobId) {
  auto it = jobs_.find(jobId);
  if (it == jobs_.end()) return;
  // Refused (FailedPrecondition) unless the job has finished; the
  // mapping then waits, hidden, for the GC of the finished job.
  const Status deleted = cluster_.deleteJob(it->second.ns, jobId);
  if (deleted.code() == StatusCode::kFailedPrecondition) {
    it->second.forgotten = true;
  } else {
    jobs_.erase(it);
  }
}

Result<JobStatusInfo> JobManager::status(const std::string& jobId) const {
  auto it = jobs_.find(jobId);
  if (it == jobs_.end() || it->second.forgotten) {
    return Status::NotFound("unknown job id " + jobId);
  }
  const auto* job = std::as_const(cluster_).job(it->second.ns, jobId);
  if (job == nullptr) return Status::NotFound("job object vanished: " + jobId);

  const auto& status = job->status();
  JobStatusInfo info;
  info.state = status.state;
  info.message = status.message;
  if (status.state == k8s::JobState::kCompleted) {
    info.resultPath = status.resultPath;
    info.outputBytes = status.outputBytes;
  }
  if (status.state == k8s::JobState::kCompleted ||
      status.state == k8s::JobState::kFailed) {
    info.runtime = status.completionTime - status.startTime;
  }
  return info;
}

}  // namespace lidc::core
