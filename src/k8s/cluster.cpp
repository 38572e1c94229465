#include "k8s/cluster.hpp"

#include <algorithm>
#include <cassert>

#include "common/logging.hpp"

namespace lidc::k8s {

namespace {
// The event log is a window for observability, not a history: the last
// 1,024 events per cluster cover about 250 job lifecycles.
constexpr std::size_t kMaxEvents = 1024;
}  // namespace

Cluster::Cluster(std::string name, sim::Simulator& sim, std::uint64_t seed)
    : name_(std::move(name)), sim_(sim), rng_(seed) {}

// ---------- nodes ----------

Node& Cluster::addNode(const std::string& nodeName, Resources allocatable) {
  auto [it, inserted] =
      nodes_.emplace(nodeName, std::make_unique<Node>(nodeName, allocatable));
  assert(inserted && "duplicate node");
  recordEvent("NodeAdded", nodeName, "allocatable cpu=" + allocatable.cpu.toString() +
                                         " mem=" + allocatable.memory.toString());
  retryUnschedulable();
  return *it->second;
}

Node* Cluster::node(const std::string& nodeName) {
  auto it = nodes_.find(nodeName);
  return it == nodes_.end() ? nullptr : it->second.get();
}

void Cluster::setNodeReady(const std::string& nodeName, bool ready) {
  if (auto* n = node(nodeName)) {
    n->setReady(ready);
    recordEvent(ready ? "NodeReady" : "NodeNotReady", nodeName, "");
    if (ready) retryUnschedulable();
  }
}

void Cluster::setNodeSlowdown(const std::string& nodeName, double factor) {
  if (auto* n = node(nodeName)) {
    n->setSlowdownFactor(factor);
    recordEvent(factor > 1.0 ? "NodeSlowdown" : "NodeSpeedRestored", nodeName,
                "factor=" + std::to_string(factor));
  }
}

void Cluster::failNode(const std::string& nodeName) {
  auto* failed = node(nodeName);
  if (failed == nullptr) return;
  failed->setReady(false);
  recordEvent("NodeFailed", nodeName, "evicting pods");

  // Collect victims first: eviction mutates the node's pod set.
  std::vector<Pod*> victims;
  for (auto& [k, pod] : pods_) {
    if (pod->nodeName() == nodeName) victims.push_back(pod.get());
  }
  for (Pod* pod : victims) {
    const std::string podKey = key(pod->namespaceName(), pod->name());
    // Is this pod backing a running/pending job? Then the job's current
    // attempt fails as if the container died with the node.
    Job* owner = jobOfPod(podKey);
    if (owner != nullptr && owner->status().state == JobState::kRunning) {
      AppResult death;
      death.status = Status::Unavailable("node " + nodeName + " failed");
      death.runtime = sim::Duration::nanos(0);
      finishJob(*owner, *pod, death);
      continue;
    }
    // Plain pod (or a job pod that never started): evict and requeue.
    releasePod(*pod);
    pod->setPhase(PodPhase::kPending);
    recordEvent("PodEvicted", podKey, "node failure");
    if (std::find(unschedulable_.begin(), unschedulable_.end(), podKey) ==
        unschedulable_.end()) {
      unschedulable_.push_back(podKey);
    }
  }
  retryUnschedulable();
}

std::size_t Cluster::readyNodeCount() const noexcept {
  std::size_t count = 0;
  for (const auto& [name, n] : nodes_) {
    if (n->ready()) ++count;
  }
  return count;
}

std::vector<std::string> Cluster::nodeNames() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& [name, n] : nodes_) names.push_back(name);
  return names;
}

Resources Cluster::totalAllocatable() const {
  Resources total;
  for (const auto& [name, n] : nodes_) total += n->allocatable();
  return total;
}

Resources Cluster::totalAllocated() const {
  Resources total;
  for (const auto& [name, n] : nodes_) total += n->allocated();
  return total;
}

Resources Cluster::totalFree() const {
  Resources total;
  for (const auto& [name, n] : nodes_) {
    if (n->ready()) total += n->free();
  }
  return total;
}

// ---------- namespaces ----------

void Cluster::setNamespaceQuota(const std::string& ns, Resources quota) {
  namespace_quotas_[ns] = quota;
  recordEvent("QuotaSet", ns, "cpu=" + quota.cpu.toString() +
                                  " mem=" + quota.memory.toString());
}

std::optional<Resources> Cluster::namespaceQuota(const std::string& ns) const {
  auto it = namespace_quotas_.find(ns);
  if (it == namespace_quotas_.end()) return std::nullopt;
  return it->second;
}

Resources Cluster::namespaceUsage(const std::string& ns) const {
  Resources usage;
  for (const auto& [k, pod] : pods_) {
    // Finished pods hold nothing, as in Kubernetes ResourceQuota.
    const bool live = pod->phase() == PodPhase::kPending ||
                      pod->phase() == PodPhase::kRunning;
    if (live && pod->namespaceName() == ns) usage += pod->spec().requests;
  }
  return usage;
}

// ---------- pods ----------

Result<Pod*> Cluster::createPod(const std::string& ns, const std::string& podName,
                                PodSpec spec) {
  const std::string k = key(ns, podName);
  if (pods_.count(k) > 0) return Status::AlreadyExists("pod " + k);

  // ResourceQuota admission: rejected, not queued (K8s semantics).
  if (auto quota = namespaceQuota(ns)) {
    const Resources projected = namespaceUsage(ns) + spec.requests;
    if (!projected.fitsWithin(*quota)) {
      recordEvent("QuotaExceeded", k, "namespace " + ns + " over quota");
      return Status::ResourceExhausted("namespace " + ns +
                                       " ResourceQuota exceeded");
    }
  }
  auto pod = std::make_unique<Pod>(podName, ns, std::move(spec));
  Pod* raw = pod.get();
  pods_.emplace(k, std::move(pod));
  if (!trySchedulePod(*raw)) {
    unschedulable_.push_back(k);
    recordEvent("FailedScheduling", k, "insufficient resources; pod stays Pending");
  }
  return raw;
}

Pod* Cluster::pod(const std::string& ns, const std::string& podName) {
  auto it = pods_.find(key(ns, podName));
  return it == pods_.end() ? nullptr : it->second.get();
}

Status Cluster::deletePod(const std::string& ns, const std::string& podName) {
  const std::string k = key(ns, podName);
  auto it = pods_.find(k);
  if (it == pods_.end()) return Status::NotFound("pod " + k);
  releasePod(*it->second);
  std::erase(unschedulable_, k);
  pods_.erase(it);
  retryUnschedulable();
  return Status::Ok();
}

std::vector<Pod*> Cluster::podsInNamespace(const std::string& ns) {
  std::vector<Pod*> out;
  for (auto& [k, pod] : pods_) {
    if (pod->namespaceName() == ns) out.push_back(pod.get());
  }
  return out;
}

bool Cluster::trySchedulePod(Pod& pod) {
  std::vector<Node*> candidates;
  candidates.reserve(nodes_.size());
  for (auto& [name, n] : nodes_) candidates.push_back(n.get());

  auto selected = scheduler_.selectNode(pod, candidates);
  if (!selected) return false;

  Node* target = node(*selected);
  target->allocate(key(pod.namespaceName(), pod.name()), pod.spec().requests);
  pod.bindToNode(*selected);
  pod.setPodIp("10.1.0." + std::to_string(next_pod_ip_++));
  recordEvent("PodScheduled", key(pod.namespaceName(), pod.name()),
              "bound to " + *selected);
  startPodOnNode(pod);
  return true;
}

void Cluster::retryUnschedulable() {
  // Higher priority classes get first claim on freed capacity; the sort
  // is stable so FIFO order survives within a class. Retry the whole
  // queue; stop early is not valid because a small pod later in the
  // queue may fit even when the head does not.
  std::stable_sort(unschedulable_.begin(), unschedulable_.end(),
                   [this](const std::string& a, const std::string& b) {
                     auto ia = pods_.find(a);
                     auto ib = pods_.find(b);
                     const int pa =
                         ia == pods_.end() ? 0 : ia->second->spec().priorityClass;
                     const int pb =
                         ib == pods_.end() ? 0 : ib->second->spec().priorityClass;
                     return pa > pb;
                   });
  std::deque<std::string> still_waiting;
  while (!unschedulable_.empty()) {
    const std::string k = unschedulable_.front();
    unschedulable_.pop_front();
    auto it = pods_.find(k);
    if (it == pods_.end()) continue;
    if (!trySchedulePod(*it->second)) still_waiting.push_back(k);
  }
  unschedulable_ = std::move(still_waiting);
}

void Cluster::startPodOnNode(Pod& pod) {
  const std::string k = key(pod.namespaceName(), pod.name());
  // Image pull + container start delay, then Running. The timer belongs
  // to this binding: a pod evicted meanwhile (failNode unbinds it and
  // requeues it) must not start unbound, or it would run its job and
  // later be re-bound as a finished pod whose requests never free.
  sim_.scheduleAfter(pod.spec().startupDelay, [this, k, boundTo = pod.nodeName()] {
    auto it = pods_.find(k);
    if (it == pods_.end()) return;
    Pod& p = *it->second;
    if (p.phase() != PodPhase::kPending || p.nodeName() != boundTo) return;
    p.setPhase(PodPhase::kRunning);
    p.setStartTime(sim_.now());
    recordEvent("PodStarted", k, "on node " + p.nodeName());

    // If this pod belongs to a job, run the application now.
    if (Job* job = jobOfPod(k); job != nullptr && job->status().state == JobState::kPending) {
      executeJobPod(*job, p);
    }
  });
}

Job* Cluster::jobOfPod(const std::string& podKey) {
  auto it = job_by_pod_.find(podKey);
  if (it == job_by_pod_.end()) return nullptr;
  const JobState state = it->second->status().state;
  return state == JobState::kPending || state == JobState::kRunning ? it->second
                                                                     : nullptr;
}

void Cluster::setJobPod(Job& job, std::string podName) {
  job_by_pod_.erase(key(job.namespaceName(), job.podName()));
  job_by_pod_[key(job.namespaceName(), podName)] = &job;
  job.setPodName(std::move(podName));
}

void Cluster::releasePod(Pod& pod) {
  if (!pod.nodeName().empty()) {
    if (auto* n = node(pod.nodeName())) {
      n->release(key(pod.namespaceName(), pod.name()), pod.spec().requests);
    }
    pod.bindToNode("");
  }
}

// ---------- services ----------

Result<Service*> Cluster::createService(const std::string& ns,
                                        const std::string& svcName, ServiceSpec spec) {
  const std::string k = key(ns, svcName);
  if (services_.count(k) > 0) return Status::AlreadyExists("service " + k);
  if (spec.type == ServiceType::kNodePort && spec.nodePort == 0) {
    if (next_node_port_ > 32767) {
      return Status::ResourceExhausted("NodePort range 30000-32767 exhausted");
    }
    spec.nodePort = next_node_port_++;
  }
  auto svc = std::make_unique<Service>(svcName, ns, std::move(spec));
  svc->setClusterIp("10.152.183." + std::to_string(1 + services_.size() % 250));
  Service* raw = svc.get();
  services_.emplace(k, std::move(svc));
  dns_.addRecord(raw->dnsName(), k);
  recordEvent("ServiceCreated", k, "dns=" + raw->dnsName());
  return raw;
}

Service* Cluster::service(const std::string& ns, const std::string& svcName) {
  auto it = services_.find(key(ns, svcName));
  return it == services_.end() ? nullptr : it->second.get();
}

Status Cluster::deleteService(const std::string& ns, const std::string& svcName) {
  const std::string k = key(ns, svcName);
  auto it = services_.find(k);
  if (it == services_.end()) return Status::NotFound("service " + k);
  dns_.removeRecord(it->second->dnsName());
  services_.erase(it);
  return Status::Ok();
}

Service* Cluster::resolveDns(const std::string& dnsName) {
  auto k = dns_.resolve(dnsName);
  if (!k) return nullptr;
  auto it = services_.find(*k);
  return it == services_.end() ? nullptr : it->second.get();
}

std::vector<Pod*> Cluster::serviceEndpoints(const Service& svc) {
  std::vector<Pod*> endpoints;
  for (auto& [k, pod] : pods_) {
    if (pod->namespaceName() != svc.namespaceName()) continue;
    if (pod->phase() != PodPhase::kRunning) continue;
    if (selectorMatches(svc.spec().selector, pod->spec().labels)) {
      endpoints.push_back(pod.get());
    }
  }
  return endpoints;
}

// ---------- PVCs ----------

Result<PersistentVolumeClaim*> Cluster::createPvc(const std::string& pvcName,
                                                  ByteSize capacity) {
  if (pvcs_.count(pvcName) > 0) return Status::AlreadyExists("pvc " + pvcName);
  auto claim = std::make_unique<PersistentVolumeClaim>(pvcName, capacity);
  PersistentVolumeClaim* raw = claim.get();
  pvcs_.emplace(pvcName, std::move(claim));
  recordEvent("PvcCreated", pvcName, "capacity=" + capacity.toString());
  return raw;
}

PersistentVolumeClaim* Cluster::pvc(const std::string& pvcName) {
  auto it = pvcs_.find(pvcName);
  return it == pvcs_.end() ? nullptr : it->second.get();
}

// ---------- apps & jobs ----------

void Cluster::registerApp(const std::string& appName, AppRunner runner) {
  assert(runner);
  apps_[appName] = std::move(runner);
}

std::vector<std::string> Cluster::appNames() const {
  std::vector<std::string> names;
  names.reserve(apps_.size());
  for (const auto& [name, runner] : apps_) names.push_back(name);
  return names;
}

Status Cluster::resizePod(const std::string& ns, const std::string& podName,
                          Resources newRequests) {
  Pod* target = pod(ns, podName);
  if (target == nullptr) return Status::NotFound("pod " + key(ns, podName));
  const std::string k = key(ns, podName);

  if (target->nodeName().empty()) {
    // Still pending: just respecify and let the scheduler retry.
    target->setRequests(newRequests);
    retryUnschedulable();
    return Status::Ok();
  }

  Node* host = node(target->nodeName());
  assert(host != nullptr);
  const Resources old = target->spec().requests;
  host->release(k, old);
  if (!host->canFit(newRequests)) {
    host->allocate(k, old);  // restore
    return Status::ResourceExhausted("node " + host->name() +
                                     " cannot absorb the resize of " + k);
  }
  host->allocate(k, newRequests);
  target->setRequests(newRequests);
  recordEvent("PodResized", k,
              "cpu=" + newRequests.cpu.toString() +
                  " mem=" + newRequests.memory.toString());
  retryUnschedulable();  // shrinking may free room for queued pods
  return Status::Ok();
}

Result<Job*> Cluster::createJob(const std::string& ns, const std::string& jobName,
                                JobSpec spec) {
  const std::string k = key(ns, jobName);
  if (jobs_.count(k) > 0) return Status::AlreadyExists("job " + k);
  if (apps_.count(spec.app) == 0) {
    return Status::NotFound("no application image '" + spec.app + "' on cluster " +
                            name_);
  }

  auto job = std::make_unique<Job>(jobName, ns, std::move(spec));
  job->mutableStatus().submitTime = sim_.now();
  Job* raw = job.get();
  jobs_.emplace(k, std::move(job));

  // The app runner reads the arguments from the Job's spec, so its pods
  // keep no copy of them.
  PodSpec podSpec;
  podSpec.image = raw->spec().app;
  podSpec.requests = raw->spec().requests;
  podSpec.labels = {{"job-name", jobName}, {"app", raw->spec().app}};
  podSpec.priorityClass = raw->spec().priorityClass;
  const std::string podName = jobName + "-pod-0";
  setJobPod(*raw, podName);
  auto pod = createPod(ns, podName, std::move(podSpec));
  if (!pod.ok()) {
    job_by_pod_.erase(key(ns, podName));
    jobs_.erase(k);
    return pod.status();
  }
  recordEvent("JobCreated", k, "app=" + raw->spec().app);
  return raw;
}

Job* Cluster::job(const std::string& ns, const std::string& jobName) {
  auto it = jobs_.find(key(ns, jobName));
  return it == jobs_.end() ? nullptr : it->second.get();
}

const Job* Cluster::job(const std::string& ns, const std::string& jobName) const {
  auto it = jobs_.find(key(ns, jobName));
  return it == jobs_.end() ? nullptr : it->second.get();
}

Status Cluster::deleteJob(const std::string& ns, const std::string& jobName) {
  const std::string k = key(ns, jobName);
  auto it = jobs_.find(k);
  if (it == jobs_.end()) return Status::NotFound("job " + k);
  const Job& job = *it->second;
  const JobState state = job.status().state;
  if (state != JobState::kCompleted && state != JobState::kFailed) {
    return Status::FailedPrecondition("job " + k + " has not finished");
  }
  // Attempt n ran in pod <job>-pod-<n>; all are unbound by now.
  for (int attempt = 0; attempt <= job.status().attempts; ++attempt) {
    pods_.erase(key(ns, jobName + "-pod-" + std::to_string(attempt)));
  }
  jobs_.erase(it);
  return Status::Ok();
}

std::vector<Job*> Cluster::jobsInNamespace(const std::string& ns) {
  std::vector<Job*> out;
  for (auto& [k, job] : jobs_) {
    if (job->namespaceName() == ns) out.push_back(job.get());
  }
  return out;
}

void Cluster::executeJobPod(Job& job, Pod& pod) {
  job.mutableStatus().state = JobState::kRunning;
  job.mutableStatus().startTime = sim_.now();
  job.mutableStatus().attempts += 1;
  ++running_jobs_;

  auto runnerIt = apps_.find(job.spec().app);
  assert(runnerIt != apps_.end() && "createJob validated the app image");

  AppContext context{job.spec(), pvc(job.spec().pvcName), rng_};
  // The runner does its real work now; its reported runtime drives the
  // simulated completion schedule.
  AppResult result = runnerIt->second(context);

  // A gray-degraded node stays Ready but serves at a fraction of its
  // rate: the pod's wall-clock runtime stretches by the bound node's
  // slowdown factor (sampled at execution start, like CPU throttling).
  if (const Node* bound = node(pod.nodeName());
      bound != nullptr && bound->slowdownFactor() > 1.0) {
    result.runtime = result.runtime * bound->slowdownFactor();
  }

  for (const auto& watcher : exec_watchers_) watcher(job, result);

  const std::string ns = job.namespaceName();
  const std::string jobName = job.name();
  const std::string podKey = key(pod.namespaceName(), pod.name());
  sim_.scheduleAfter(result.runtime, [this, ns, jobName, podKey, result] {
    auto jobIt = jobs_.find(key(ns, jobName));
    auto podIt = pods_.find(podKey);
    if (jobIt == jobs_.end() || podIt == pods_.end()) return;
    // The pod may have been killed in the meantime (node failure); only
    // a still-Running attempt can complete.
    if (jobIt->second->status().state != JobState::kRunning) return;
    if (podIt->second->phase() != PodPhase::kRunning) return;
    finishJob(*jobIt->second, *podIt->second, result);
  });
}

void Cluster::finishJob(Job& job, Pod& pod, const AppResult& result) {
  --running_jobs_;
  auto& status = job.mutableStatus();
  status.completionTime = sim_.now();
  status.message = result.message;
  status.resultPath = result.resultPath;
  status.outputBytes = result.outputBytes;

  if (result.status.ok()) {
    pod.setPhase(PodPhase::kSucceeded);
    status.state = JobState::kCompleted;
    recordEvent("JobCompleted", key(job.namespaceName(), job.name()),
                "output=" + std::to_string(result.outputBytes) + "B");
  } else {
    pod.setPhase(PodPhase::kFailed);
    pod.setTerminationMessage(result.status.toString());
    if (status.attempts <= job.spec().backoffLimit) {
      // Retry with a fresh pod, as the Job controller does.
      recordEvent("JobRetry", key(job.namespaceName(), job.name()),
                  "attempt " + std::to_string(status.attempts));
      releasePod(pod);
      status.state = JobState::kPending;
      PodSpec podSpec;
      podSpec.image = job.spec().app;
      podSpec.requests = job.spec().requests;
      podSpec.labels = {{"job-name", job.name()}, {"app", job.spec().app}};
      const std::string podName =
          job.name() + "-pod-" + std::to_string(status.attempts);
      setJobPod(job, podName);
      auto created = createPod(job.namespaceName(), podName, std::move(podSpec));
      if (created.ok()) {
        retryUnschedulable();
        return;
      }
      // Fall through to Failed if even pod creation failed.
    }
    status.state = JobState::kFailed;
    status.message = result.status.toString();
    recordEvent("JobFailed", key(job.namespaceName(), job.name()), status.message);
  }

  // Only a Pending or Running job answers for its pod (jobOfPod).
  job_by_pod_.erase(key(job.namespaceName(), job.podName()));
  releasePod(pod);
  retryUnschedulable();
  for (const auto& watcher : job_watchers_) watcher(job);
}

void Cluster::recordEvent(std::string_view kind, std::string object,
                          std::string message) {
  LIDC_LOG(kDebug, "k8s") << name_ << " " << kind << " " << object << " " << message;
  events_.push_back(Event{sim_.now(), kind, std::move(object), std::move(message)});
  while (events_.size() > kMaxEvents) events_.pop_front();
}

}  // namespace lidc::k8s
