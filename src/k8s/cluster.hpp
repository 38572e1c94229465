// Cluster: the API-server facade tying together nodes, pods, services,
// DNS, PVCs, jobs, and the scheduler. One Cluster instance corresponds
// to one MicroK8s deployment in the paper's testbed. The LIDC Gateway
// drives everything through this interface only — it never reaches into
// pods directly, matching the paper's "network as simple matchmaker"
// division of labour (SIII-A).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "k8s/dns.hpp"
#include "k8s/job.hpp"
#include "k8s/node.hpp"
#include "k8s/pod.hpp"
#include "k8s/pvc.hpp"
#include "k8s/scheduler.hpp"
#include "k8s/service.hpp"
#include "sim/simulator.hpp"

namespace lidc::k8s {

/// One control-plane event (for observability and tests).
struct Event {
  sim::Time time;
  std::string_view kind;  // a literal: "PodScheduled", "JobCompleted", ...
  std::string object;     // "ns/name"
  std::string message;
};

class Cluster {
 public:
  Cluster(std::string name, sim::Simulator& sim, std::uint64_t seed = 7);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  // --- nodes ---
  Node& addNode(const std::string& nodeName, Resources allocatable);
  [[nodiscard]] Node* node(const std::string& nodeName);
  void setNodeReady(const std::string& nodeName, bool ready);
  /// Hard node failure: the node goes NotReady and every pod bound to it
  /// is evicted. Job pods fail (and retry if backoffLimit allows);
  /// evicted non-job pods return to the scheduling queue.
  void failNode(const std::string& nodeName);
  /// Gray failure: scale the node's service rate down by `factor`
  /// (>= 1.0; 1.0 restores full speed) while it stays Ready. Job pods
  /// already running on it finish on their original schedule; newly
  /// executed pods take factor x as long. Driven by
  /// ChaosEngine::slowNode().
  void setNodeSlowdown(const std::string& nodeName, double factor);
  [[nodiscard]] std::size_t nodeCount() const noexcept { return nodes_.size(); }
  /// Nodes currently Ready (the gateway's health gate watches this).
  [[nodiscard]] std::size_t readyNodeCount() const noexcept;
  [[nodiscard]] std::vector<std::string> nodeNames() const;
  [[nodiscard]] Resources totalAllocatable() const;
  [[nodiscard]] Resources totalAllocated() const;
  /// Free resources across all Ready nodes.
  [[nodiscard]] Resources totalFree() const;

  // --- namespaces ---
  /// Caps the total resource *requests* of pods in a namespace (K8s
  /// ResourceQuota). Pods that would exceed the quota are rejected at
  /// admission, not queued.
  void setNamespaceQuota(const std::string& ns, Resources quota);
  [[nodiscard]] std::optional<Resources> namespaceQuota(const std::string& ns) const;
  /// Sum of requests of the namespace's Pending and Running pods.
  [[nodiscard]] Resources namespaceUsage(const std::string& ns) const;

  // --- pods ---
  Result<Pod*> createPod(const std::string& ns, const std::string& podName,
                         PodSpec spec);
  [[nodiscard]] Pod* pod(const std::string& ns, const std::string& podName);
  Status deletePod(const std::string& ns, const std::string& podName);
  [[nodiscard]] std::vector<Pod*> podsInNamespace(const std::string& ns);
  [[nodiscard]] std::size_t pendingUnschedulable() const noexcept {
    return unschedulable_.size();
  }

  // --- services & DNS ---
  Result<Service*> createService(const std::string& ns, const std::string& svcName,
                                 ServiceSpec spec);
  [[nodiscard]] Service* service(const std::string& ns, const std::string& svcName);
  Status deleteService(const std::string& ns, const std::string& svcName);
  /// Resolves a cluster DNS name to the Service (paper: NDN names map to
  /// these endpoints).
  [[nodiscard]] Service* resolveDns(const std::string& dnsName);
  /// Pods currently backing a service (label selector match, Running only).
  [[nodiscard]] std::vector<Pod*> serviceEndpoints(const Service& svc);

  // --- PVCs ---
  Result<PersistentVolumeClaim*> createPvc(const std::string& pvcName,
                                           ByteSize capacity);
  [[nodiscard]] PersistentVolumeClaim* pvc(const std::string& pvcName);

  // --- application images ---
  void registerApp(const std::string& appName, AppRunner runner);
  [[nodiscard]] bool hasApp(const std::string& appName) const {
    return apps_.count(appName) > 0;
  }
  [[nodiscard]] std::vector<std::string> appNames() const;

  /// Vertical scaling (paper SIII-A): resizes a bound pod's resource
  /// requests in place when the node can absorb the delta; a pending
  /// pod is simply respecified and rescheduled.
  Status resizePod(const std::string& ns, const std::string& podName,
                   Resources newRequests);

  // --- jobs ---
  Result<Job*> createJob(const std::string& ns, const std::string& jobName,
                         JobSpec spec);
  [[nodiscard]] Job* job(const std::string& ns, const std::string& jobName);
  [[nodiscard]] const Job* job(const std::string& ns,
                               const std::string& jobName) const;
  [[nodiscard]] std::vector<Job*> jobsInNamespace(const std::string& ns);
  /// Deletes a finished (Completed or Failed) Job with its pods, as
  /// Kubernetes' TTL-after-finished controller does. Their resources
  /// were released when the job finished, so nothing else changes. A
  /// Pending or Running job is refused with FailedPrecondition.
  Status deleteJob(const std::string& ns, const std::string& jobName);
  /// Fires when any job reaches Completed or Failed.
  void onJobFinished(std::function<void(const Job&)> callback) {
    job_watchers_.push_back(std::move(callback));
  }
  /// Fires when a job pod begins executing, right after its app runner
  /// produced the AppResult whose runtime drives the completion
  /// schedule (slowdown-adjusted). The migration plane's
  /// CheckpointManager hooks this to plan periodic checkpoint writes
  /// from the result's checkpointPlan closure.
  void onJobExecuted(std::function<void(const Job&, const AppResult&)> callback) {
    exec_watchers_.push_back(std::move(callback));
  }
  [[nodiscard]] std::size_t runningJobCount() const noexcept { return running_jobs_; }

  // --- events ---
  /// The most recent events, oldest first (at most 1,024 are kept).
  [[nodiscard]] const std::deque<Event>& events() const noexcept { return events_; }

  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }

 private:
  static std::string key(const std::string& ns, const std::string& name) {
    return ns + "/" + name;
  }

  void recordEvent(std::string_view kind, std::string object, std::string message);
  /// Attempts to bind the pod to a node; on success drives its lifecycle.
  bool trySchedulePod(Pod& pod);
  /// Called when resources free up: retries unschedulable pods in order.
  void retryUnschedulable();
  void startPodOnNode(Pod& pod);
  /// Runs the job's application and schedules completion.
  void executeJobPod(Job& job, Pod& pod);
  void finishJob(Job& job, Pod& pod, const AppResult& result);
  void releasePod(Pod& pod);
  /// The Pending or Running job whose current pod is `podKey`, if any.
  [[nodiscard]] Job* jobOfPod(const std::string& podKey);
  /// Points `job` at a new current pod, keeping job_by_pod_ in step.
  void setJobPod(Job& job, std::string podName);

  std::string name_;
  sim::Simulator& sim_;
  Rng rng_;
  Scheduler scheduler_;
  ClusterDns dns_;

  std::map<std::string, Resources> namespace_quotas_;
  std::map<std::string, std::unique_ptr<Node>> nodes_;
  std::map<std::string, std::unique_ptr<Pod>> pods_;          // key ns/name
  std::map<std::string, std::unique_ptr<Service>> services_;  // key ns/name
  std::map<std::string, std::unique_ptr<PersistentVolumeClaim>> pvcs_;
  std::map<std::string, std::unique_ptr<Job>> jobs_;  // key ns/name
  std::unordered_map<std::string, Job*> job_by_pod_;  // current pod key -> job
  std::map<std::string, AppRunner> apps_;

  std::deque<std::string> unschedulable_;  // pod keys awaiting capacity
  std::vector<std::function<void(const Job&)>> job_watchers_;
  std::vector<std::function<void(const Job&, const AppResult&)>> exec_watchers_;
  std::deque<Event> events_;
  std::uint16_t next_node_port_ = 30000;
  std::uint32_t next_pod_ip_ = 1;
  std::size_t running_jobs_ = 0;
};

}  // namespace lidc::k8s
