#include "core/gateway.hpp"

#include <optional>
#include <string_view>

#include "common/logging.hpp"
#include "core/checkpoint_format.hpp"
#include "core/wire_format.hpp"

namespace lidc::core {

Gateway::Gateway(ndn::Forwarder& forwarder, k8s::Cluster& cluster,
                 ValidatorRegistry validators, GatewayOptions options,
                 CompletionTimePredictor* predictor)
    : forwarder_(forwarder),
      cluster_(cluster),
      cluster_name_(cluster.name()),
      validators_(std::move(validators)),
      options_(options),
      predictor_(predictor),
      jobs_(cluster),
      cache_(options.cacheCapacity, options.cacheTtl) {
  face_ = std::make_shared<ndn::AppFace>("app://gateway/" + cluster_name_,
                                         forwarder_.simulator());
  face_->setInterestHandler([this](const ndn::Interest& i) { handleInterest(i); });
  face_id_ = forwarder_.addFace(face_);

  // The gateway NFD's prefix registrations (paper SIV): compute handled
  // locally, status scoped to this cluster.
  forwarder_.registerPrefix(kComputePrefix, face_id_, /*cost=*/0);
  ndn::Name statusPrefix = kStatusPrefix;
  statusPrefix.append(cluster_name_);
  forwarder_.registerPrefix(statusPrefix, face_id_, /*cost=*/0);
  // Capability advertisement endpoint (paper SVII: the network learning
  // cluster capabilities).
  ndn::Name infoPrefix = kInfoPrefix;
  infoPrefix.append(cluster_name_);
  forwarder_.registerPrefix(infoPrefix, face_id_, /*cost=*/0);

  cluster_.onJobFinished([this](const k8s::Job& job) { onJobFinished(job); });
}

void Gateway::enablePublish(datalake::ObjectStore& store) {
  publish_store_ = &store;
  forwarder_.registerPrefix(kPublishPrefix, face_id_, /*cost=*/0);
  if (tenants_ != nullptr) {
    publish_store_->setQuotaCharger(
        [this](const std::string& tenant, std::uint64_t bytes) {
          return tenants_->chargePublish(tenant, bytes);
        });
  }
}

void Gateway::enableQos(qos::TenantRegistry& tenants,
                        qos::AdmissionOptions admission) {
  tenants_ = &tenants;
  admission_ = std::make_unique<qos::AdmissionController>(
      forwarder_.simulator(), tenants, cluster_name_, admission);
  admission_->setFlightRecorder(recorder_);
  // The drain-time capacity gate mirrors the legacy path's admission
  // control: health first, then whether the job fits the free capacity.
  admission_->setCapacityProbe([this](const qos::AdmissionJob& job) {
    if (!admission_control_) return true;
    if (healthyNodeFraction() < options_.minHealthyNodeFraction) return false;
    k8s::Resources needed;
    needed.cpu = MilliCpu(static_cast<std::int64_t>(job.cpuMillicores));
    needed.memory = ByteSize(job.memoryBytes);
    return needed.fitsWithin(cluster_.totalFree());
  });
  forwarder_.registerPrefix(kSubmitPrefix, face_id_, /*cost=*/0);
  if (publish_store_ != nullptr) {
    publish_store_->setQuotaCharger(
        [this](const std::string& tenant, std::uint64_t bytes) {
          return tenants_->chargePublish(tenant, bytes);
        });
  }
  if (metrics_registry_ != nullptr) {
    admission_->attachTelemetry(*metrics_registry_);
  }
}

void Gateway::handleInterest(const ndn::Interest& interest) {
  if (blackout_) {
    // Gateway process "down": total silence, the PIT entry times out.
    counters_->blackoutDropped.inc();
    LIDC_FR_EVENT(recorder_, kWarn, "gateway",
                  cluster_name_ + " blackout-drop " + interest.name().toUri());
    return;
  }
  if (kComputePrefix.isPrefixOf(interest.name())) {
    onCompute(interest);
  } else if (kSubmitPrefix.isPrefixOf(interest.name())) {
    onSubmit(interest);
  } else if (kStatusPrefix.isPrefixOf(interest.name())) {
    onStatus(interest);
  } else if (kInfoPrefix.isPrefixOf(interest.name())) {
    onInfo(interest);
  } else if (kPublishPrefix.isPrefixOf(interest.name())) {
    onPublish(interest);
  } else {
    face_->putNack(interest, ndn::NackReason::kNoRoute);
  }
}

void Gateway::replyKv(const ndn::Name& name, const KvMap& fields,
                      sim::Duration freshness) {
  ndn::Data data(name);
  data.setContent(encodeKv(fields));
  data.setFreshnessPeriod(freshness);
  data.sign();
  face_->putData(std::move(data));
}

// Gray failure: admit the job with a straight face — plausible ack,
// fresh job id — then never schedule anything. The client only finds
// out when its progress watchdog notices the job never leaves Pending.
void Gateway::grayAdmit(const ndn::Interest& interest) {
  counters_->grayAdmitted.inc();
  const std::string jobId = "gray-" + std::to_string(next_gray_id_++);
  gray_jobs_.insert(jobId);
  LIDC_FR_EVENT(recorder_, kWarn, "gateway",
                cluster_name_ + " gray-admit " + jobId);
  replyKv(interest.name(),
          {{"job_id", jobId},
           {"cluster", cluster_name_},
           {"status_name", makeStatusName(cluster_name_, jobId).toUri()}},
          options_.ackFreshness);
}

void Gateway::onCompute(const ndn::Interest& interest) {
  counters_->computeReceived.inc();
  if (gray_) {
    grayAdmit(interest);
    return;
  }

  auto parsed = ComputeRequest::fromName(interest.name());
  if (!parsed.ok()) {
    counters_->computeRejected.inc();
    if (tracer_ != nullptr) {
      tracer_->instant("gateway-admission", "gateway:" + cluster_name_,
                       interest.traceContext(),
                       {{"decision", "parse-reject"},
                        {"error", parsed.status().toString()}});
    }
    LIDC_FR_EVENT(recorder_, kWarn, "gateway", cluster_name_ + " parse-reject");
    replyKv(interest.name(),
            {{"error", parsed.status().toString()}, {"cluster", cluster_name_}},
            options_.ackFreshness);
    return;
  }
  processCompute(interest, *parsed, /*tenant=*/"", /*priorityClass=*/0,
                 /*checkCapacity=*/true);
}

void Gateway::onSubmit(const ndn::Interest& interest) {
  counters_->computeReceived.inc();
  if (admission_ == nullptr) {
    // QoS not enabled here: let the network try another cluster.
    face_->putNack(interest, ndn::NackReason::kNoRoute);
    return;
  }
  if (gray_) {
    grayAdmit(interest);
    return;
  }

  auto parsed = parseSubmitName(interest.name());
  if (!parsed.ok()) {
    // Malformed submit names are terminal: no cluster can parse them.
    counters_->computeRejected.inc();
    LIDC_FR_EVENT(recorder_, kWarn, "gateway",
                  cluster_name_ + " submit-parse-reject");
    replyKv(interest.name(),
            {{"error", parsed.status().toString()}, {"cluster", cluster_name_}},
            options_.ackFreshness);
    return;
  }
  const std::string tenant = parsed->first;
  auto request = std::make_shared<ComputeRequest>(std::move(parsed->second));
  const qos::TenantSpec* spec = tenants_->find(tenant);
  const int priority = spec != nullptr ? spec->priorityClass : 0;

  qos::AdmissionJob job;
  job.tenant = tenant;
  job.cpuMillicores = request->cpu.millicores() > 0
                          ? static_cast<std::uint64_t>(request->cpu.millicores())
                          : JobManager::kDefaultCpuMillicores;
  job.memoryBytes = request->memory.bytes() > 0
                        ? request->memory.bytes()
                        : JobManager::defaultMemory().bytes();
  job.expiresAt = forwarder_.simulator().now() + interest.lifetime();
  job.tag = request->requestId.empty() ? request->app : request->requestId;
  job.wireBytes = interest.wireSize();
  auto held = std::make_shared<ndn::Interest>(interest);
  const std::uint64_t cpu = job.cpuMillicores;
  const std::uint64_t mem = job.memoryBytes;
  job.launch = [this, held, request, tenant, priority, cpu, mem] {
    // A launch that produced no job record (cache hit, dedup, rejection)
    // holds no usage: release the admission charge immediately.
    if (!processCompute(*held, *request, tenant, priority,
                        /*checkCapacity=*/false)) {
      admission_->releaseJob(tenant, cpu, mem);
    }
  };
  job.evict = [this, held](const std::string&) {
    counters_->computeRejected.inc();
    face_->putNack(*held, ndn::NackReason::kQuotaExceeded);
  };

  switch (admission_->offer(std::move(job))) {
    case qos::AdmitDecision::kQueued:
      return;  // launch or evict will answer the Interest
    case qos::AdmitDecision::kRejectedUnknownTenant:
      // Terminal: an unknown tenant is unknown everywhere (the registry
      // is federation-wide), so an error Data beats a failover storm.
      counters_->computeRejected.inc();
      replyKv(interest.name(),
              {{"error", "unknown tenant '" + tenant + "'"},
               {"cluster", cluster_name_}},
              options_.ackFreshness);
      return;
    case qos::AdmitDecision::kRejectedRate:
    case qos::AdmitDecision::kRejectedQuota:
    case qos::AdmitDecision::kRejectedQueueFull:
      counters_->computeRejected.inc();
      face_->putNack(interest, ndn::NackReason::kQuotaExceeded);
      return;
  }
}

bool Gateway::processCompute(const ndn::Interest& interest,
                             const ComputeRequest& request,
                             const std::string& tenant, int priorityClass,
                             bool checkCapacity) {
  // Admission decisions become zero-duration "gateway-admission" spans on
  // the submitter's trace; the launch decision's context also parents the
  // retroactive K8s spans recorded in onJobFinished().
  const telemetry::TraceContext traceCtx = interest.traceContext();
  auto admission = [this, traceCtx](const char* decision,
                                    telemetry::SpanAttrs extra = {}) {
    // Rejections land in the flight recorder (alert post-mortems);
    // normal launches would only drown the window.
    if (std::string_view(decision).ends_with("-reject")) {
      LIDC_FR_EVENT(recorder_, kWarn, "gateway",
                    cluster_name_ + " " + decision);
    }
    if (tracer_ == nullptr) return telemetry::TraceContext{};
    telemetry::SpanAttrs attrs{{"decision", decision}};
    attrs.insert(attrs.end(), extra.begin(), extra.end());
    return tracer_->instant("gateway-admission", "gateway:" + cluster_name_,
                            traceCtx, std::move(attrs));
  };

  // Application-specific validation (paper SIV-B). Cluster-local
  // conditions (NOT_FOUND: e.g. a dataset absent from *this* lake) nack
  // so the network fails over to a cluster that can serve the request;
  // malformed requests get a terminal error Data — no cluster can help.
  if (Status valid = validators_.validate(request); !valid.ok()) {
    counters_->computeRejected.inc();
    admission("validation-reject", {{"error", valid.toString()}});
    if (valid.code() == StatusCode::kNotFound) {
      face_->putNack(interest, ndn::NackReason::kNoRoute);
      return false;
    }
    replyKv(interest.name(),
            {{"error", valid.toString()}, {"cluster", cluster_name_}},
            options_.ackFreshness);
    return false;
  }

  // --- checkpoint restore (migration plane) ---
  // A ckpt=<job_id>/<epoch> param asks this cluster to resume from a
  // named checkpoint instead of cold-starting. Resume-point validation
  // rejects stale or corrupt checkpoints (counted cold start) and nacks
  // when the object is not in this lake, so the forwarding strategy
  // steers the resume to whichever cluster holds a replica.
  ComputeRequest effective = request;
  bool restoring = false;
  std::string ckptJobId;     // checkpoint owner, for the status alias
  std::string restoredFrom;  // old cluster name (ckpt_from param)
  if (auto ckptIt = effective.params.find("ckpt");
      ckptIt != effective.params.end()) {
    const auto ref = parseCkptRef(ckptIt->second);
    if (!ref) {
      // Malformed references are terminal: no cluster can parse them.
      counters_->computeRejected.inc();
      admission("ckpt-parse-reject");
      replyKv(interest.name(),
              {{"error", "INVALID_ARGUMENT: malformed ckpt reference '" +
                             ckptIt->second + "'"},
               {"cluster", cluster_name_}},
              options_.ackFreshness);
      return false;
    }
    if (ckpt_store_ == nullptr) {
      // This cluster does not serve checkpoints: steer elsewhere.
      admission("ckpt-miss-reject");
      face_->putNack(interest, ndn::NackReason::kNoRoute);
      return false;
    }
    const auto payload = ckpt_store_->get(makeCkptName(ref->jobId, ref->epoch));
    if (!payload) {
      admission("ckpt-miss-reject");
      face_->putNack(interest, ndn::NackReason::kNoRoute);
      return false;
    }
    // Resume-point validation. A ckpt_digest pin (set by the migration
    // coordinator from the manifest it read while planning) is the
    // authoritative integrity check — the local manifest replica may
    // legitimately lag the latest epoch after a crash. Without a pin,
    // the local manifest must name this exact epoch and digest.
    const std::uint64_t digest = ckptDigest(*payload);
    std::string invalid;
    if (auto pin = effective.params.find("ckpt_digest");
        pin != effective.params.end()) {
      if (pin->second != std::to_string(digest)) invalid = "digest-pin-mismatch";
    } else {
      std::optional<CkptManifest> manifest;
      if (const auto bytes =
              ckpt_store_->get(makeCkptManifestName(ref->jobId))) {
        const std::string text(bytes->begin(), bytes->end());
        if (auto decoded = decodeCkptManifest(text)) manifest = *decoded;
      }
      if (!manifest) {
        invalid = "manifest-missing";
      } else if (manifest->epoch != ref->epoch) {
        invalid = "stale-epoch";
      } else if (manifest->digest != digest) {
        invalid = "digest-mismatch";
      }
    }
    if (!invalid.empty()) {
      counters_->ckptRestoreFailures.inc();
      LIDC_FR_EVENT(recorder_, kWarn, "gateway",
                    cluster_name_ + " ckpt-restore-fallback " + ckptIt->second +
                        " (" + invalid + ")");
      admission("ckpt-fallback", {{"why", invalid}});
      effective.params.erase("ckpt");
      effective.params.erase("ckpt_digest");
      effective.params.erase("ckpt_from");
    } else {
      restoring = true;
      ckptJobId = ref->jobId;
      if (auto from = effective.params.find("ckpt_from");
          from != effective.params.end()) {
        restoredFrom = from->second;
      }
    }
  }

  const ndn::Name canonical = effective.canonicalName();

  // Result cache: identical canonical requests are answered directly
  // with the stored result location (paper SVII).
  if (options_.enableResultCache && request.requestId.empty()) {
    if (auto cached = cache_.get(canonical, forwarder_.simulator().now())) {
      counters_->cacheHits.inc();
      admission("cache-hit", {{"job_id", cached->jobId}});
      replyKv(interest.name(),
              {{"cached", "1"},
               {"job_id", cached->jobId},
               {"cluster", cluster_name_},
               {"result", cached->resultPath},
               {"output_bytes", std::to_string(cached->outputBytes)}},
              options_.ackFreshness);
      return false;
    }
    // In-flight dedup: join a running job for the same canonical name.
    if (auto it = inflight_.find(canonical); it != inflight_.end()) {
      counters_->inflightDedup.inc();
      admission("dedup", {{"job_id", it->second}});
      replyKv(interest.name(),
              {{"job_id", it->second},
               {"cluster", cluster_name_},
               {"status_name", makeStatusName(cluster_name_, it->second).toUri()},
               {"deduplicated", "1"}},
              options_.ackFreshness);
      return false;
    }
  }

  // Admission control: if this cluster cannot fit the job now, nack so
  // the forwarding strategy fails over to another cluster (the paper's
  // "any cluster with sufficient resources" property). QoS launches skip
  // this: the AdmissionController's capacity probe already gated them at
  // drain time.
  if (admission_control_ && checkCapacity) {
    // Health gate: a cluster that lost too many nodes stops admitting
    // jobs entirely, even if the survivors nominally have capacity —
    // partial failures usually cascade, and the overlay has healthier
    // clusters to offer.
    if (healthyNodeFraction() < options_.minHealthyNodeFraction) {
      counters_->healthRejected.inc();
      admission("health-reject",
                {{"healthy_fraction", std::to_string(healthyNodeFraction())}});
      face_->putNack(interest, ndn::NackReason::kCongestion);
      return false;
    }
    k8s::Resources needed;
    needed.cpu = effective.cpu.millicores() > 0
                     ? effective.cpu
                     : MilliCpu(JobManager::kDefaultCpuMillicores);
    needed.memory = effective.memory.bytes() > 0 ? effective.memory
                                                 : JobManager::defaultMemory();
    if (!needed.fitsWithin(cluster_.totalFree())) {
      counters_->capacityRejected.inc();
      admission("capacity-reject");
      face_->putNack(interest, ndn::NackReason::kCongestion);
      return false;
    }
  }

  auto jobId = jobs_.submit(effective, priorityClass);
  if (!jobId.ok()) {
    counters_->computeRejected.inc();
    admission("launch-reject", {{"error", jobId.status().toString()}});
    if (jobId.status().code() == StatusCode::kNotFound) {
      // e.g. this cluster does not serve the application image; another
      // cluster in the overlay might.
      face_->putNack(interest, ndn::NackReason::kNoRoute);
      return false;
    }
    if (jobId.status().code() == StatusCode::kResourceExhausted) {
      // The tenant's ResourceQuota on *this* cluster is exhausted. On
      // the QoS path that is a quota signal (backoff, not failover); on
      // the legacy path quotas are per-cluster, so fail over.
      face_->putNack(interest, tenant.empty()
                                   ? ndn::NackReason::kCongestion
                                   : ndn::NackReason::kQuotaExceeded);
      return false;
    }
    replyKv(interest.name(),
            {{"error", jobId.status().toString()}, {"cluster", cluster_name_}},
            options_.ackFreshness);
    return false;
  }

  counters_->jobsLaunched.inc();
  const telemetry::TraceContext launchCtx =
      admission("launch", {{"job_id", *jobId}});
  LaunchRecord record{effective, forwarder_.simulator().now(), launchCtx};
  if (!tenant.empty()) {
    record.tenant = tenant;
    record.chargedCpu = effective.cpu.millicores() > 0
                            ? static_cast<std::uint64_t>(effective.cpu.millicores())
                            : JobManager::kDefaultCpuMillicores;
    record.chargedMem = effective.memory.bytes() > 0
                            ? effective.memory.bytes()
                            : JobManager::defaultMemory().bytes();
  }
  launched_.emplace(*jobId, std::move(record));
  if (effective.requestId.empty()) inflight_.emplace(canonical, *jobId);
  scheduleReaper();

  if (restoring) {
    counters_->ckptRestores.inc();
    LIDC_FR_EVENT(recorder_, kInfo, "gateway",
                  cluster_name_ + " ckpt-restore " + *jobId + " from " +
                      ckptJobId);
    // Alias the migrated-away job id so its pollers follow the move.
    if (!restoredFrom.empty()) addStatusAlias(restoredFrom, ckptJobId, *jobId);
  }

  log::ScopedTrace scopedTrace(traceCtx.trace);
  LIDC_LOG(kInfo, "gateway") << cluster_name_ << " launched " << *jobId << " for "
                             << interest.name().toUri();
  replyKv(interest.name(),
          {{"job_id", *jobId},
           {"cluster", cluster_name_},
           {"status_name", makeStatusName(cluster_name_, *jobId).toUri()}},
          options_.ackFreshness);
  return true;
}

void Gateway::onStatus(const ndn::Interest& interest) {
  counters_->statusReceived.inc();
  auto parsed = parseStatusName(interest.name());
  if (!parsed.ok()) {
    face_->putNack(interest, ndn::NackReason::kNoRoute);
    return;
  }
  std::string jobKey = parsed->second;
  if (parsed->first != cluster_name_) {
    // Migration alias: polls under the old cluster's name for a job
    // that moved here are answered with the local successor's status.
    auto alias = status_aliases_.find(parsed->first + "/" + parsed->second);
    if (alias == status_aliases_.end()) {
      face_->putNack(interest, ndn::NackReason::kNoRoute);
      return;
    }
    counters_->aliasServed.inc();
    jobKey = alias->second.jobId;
  }
  // Touch-eviction: an expired terminal entry is forgotten on contact,
  // so status GC holds even while the reaper timer is idle.
  if (options_.enableStatusGc) {
    if (auto t = terminal_.find(jobKey);
        t != terminal_.end() &&
        forwarder_.simulator().now() - t->second > options_.statusRetention) {
      counters_->statusEvicted.inc();
      jobs_.forget(jobKey);
      terminal_.erase(t);
    }
  }
  // A gray-admitted id has no job behind it: report Pending forever,
  // exactly the signature a stalled-but-alive gateway shows.
  if (gray_jobs_.count(jobKey) > 0) {
    replyKv(interest.name(),
            {{"state", std::string(k8s::jobStateName(k8s::JobState::kPending))},
             {"cluster", cluster_name_}},
            options_.statusFreshness);
    return;
  }
  auto status = jobs_.status(jobKey);
  if (!status.ok()) {
    // The job object vanished (reaped, or lost with its cluster state):
    // evict any dangling dedup bookkeeping so a later identical request
    // launches fresh instead of joining a dead job, then answer a clean
    // NotFound.
    if (status.status().code() == StatusCode::kNotFound &&
        launched_.count(jobKey) > 0) {
      counters_->vanishedEvicted.inc();
      evictJob(jobKey, /*forgetStatus=*/false);
    }
    replyKv(interest.name(), {{"error", status.status().toString()}},
            options_.statusFreshness);
    return;
  }

  if (tracer_ != nullptr) {
    tracer_->instant("status-serve", "gateway:" + cluster_name_,
                     interest.traceContext(),
                     {{"job_id", jobKey},
                      {"state", std::string(k8s::jobStateName(status->state))}});
  }

  KvMap fields{{"state", std::string(k8s::jobStateName(status->state))},
               {"cluster", cluster_name_}};
  switch (status->state) {
    case k8s::JobState::kCompleted:
      // Paper SIV-A: "The response contains the information as to how to
      // retrieve the results from the data lake."
      fields["result"] = status->resultPath;
      fields["output_bytes"] = std::to_string(status->outputBytes);
      fields["runtime_s"] = std::to_string(status->runtime.toSeconds());
      break;
    case k8s::JobState::kFailed:
      fields["error"] = status->message;
      break;
    case k8s::JobState::kRunning:
    case k8s::JobState::kPending:
      break;
  }
  replyKv(interest.name(), fields, options_.statusFreshness);
}

void Gateway::onInfo(const ndn::Interest& interest) {
  counters_->infoReceived.inc();
  const auto free = cluster_.totalFree();
  const auto total = cluster_.totalAllocatable();
  std::string apps;
  for (const auto& app : cluster_.appNames()) {
    if (!apps.empty()) apps += ',';
    apps += app;
  }
  replyKv(interest.name(),
          {{"cluster", cluster_name_},
           {"free_cpu_m", std::to_string(free.cpu.millicores())},
           {"free_mem_bytes", std::to_string(free.memory.bytes())},
           {"total_cpu_m", std::to_string(total.cpu.millicores())},
           {"total_mem_bytes", std::to_string(total.memory.bytes())},
           {"running_jobs", std::to_string(cluster_.runningJobCount())},
           {"nodes", std::to_string(cluster_.nodeCount())},
           {"apps", apps}},
          options_.infoFreshness);
}

void Gateway::onPublish(const ndn::Interest& interest) {
  // Command Interest: /ndn/k8s/publish/<object...>/sha=<digest>, payload
  // in ApplicationParameters. The trailing digest makes the command name
  // unique per content version and lets the gateway verify integrity.
  auto reject = [this, &interest](const std::string& reason) {
    counters_->publishesRejected.inc();
    replyKv(interest.name(), {{"error", reason}, {"cluster", cluster_name_}},
            options_.statusFreshness);
  };

  if (publish_store_ == nullptr) {
    face_->putNack(interest, ndn::NackReason::kNoRoute);
    return;
  }
  const ndn::Name& name = interest.name();
  if (name.size() < kPublishPrefix.size() + 2) {
    reject("publish name needs /<object...>/sha=<digest>");
    return;
  }
  // Optional tenant attribution: a "tenant=<id>" component right after
  // the prefix scopes the publish to that tenant's byte quota. It is
  // stripped from the stored object name.
  std::string tenant;
  std::size_t objectStart = kPublishPrefix.size();
  if (const std::string first = name[objectStart].toString();
      strings::startsWith(first, "tenant=")) {
    tenant = first.substr(7);
    ++objectStart;
    if (name.size() < objectStart + 2) {
      reject("publish name needs /<object...>/sha=<digest>");
      return;
    }
    if (tenants_ == nullptr || tenants_->find(tenant) == nullptr) {
      reject("unknown tenant '" + tenant + "'");
      return;
    }
  }
  const std::string last = name[name.size() - 1].toString();
  if (!strings::startsWith(last, "sha=")) {
    reject("publish name missing trailing sha= component");
    return;
  }
  const auto& payload = interest.applicationParameters();
  if (payload.empty()) {
    reject("publish carries no ApplicationParameters payload");
    return;
  }
  if (payload.size() > options_.maxPublishBytes) {
    reject("publish payload exceeds " +
           std::to_string(options_.maxPublishBytes) + " bytes");
    return;
  }
  // Integrity: the digest in the name must match the payload.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::uint8_t byte : payload) {
    digest ^= byte;
    digest *= 0x100000001b3ULL;
  }
  if (last != "sha=" + std::to_string(digest)) {
    reject("payload digest mismatch");
    return;
  }

  ndn::Name objectName = kDataPrefix;
  objectName.append(name.subName(objectStart, name.size() - objectStart - 1));
  Status stored = tenant.empty()
                      ? publish_store_->put(objectName, payload)
                      : publish_store_->put(objectName, payload, tenant);
  if (!stored.ok()) {
    if (stored.code() == StatusCode::kResourceExhausted) {
      // Over the tenant's publish byte budget: distinct quota signal so
      // the client backs off instead of failing over.
      counters_->publishesRejected.inc();
      LIDC_FR_EVENT(recorder_, kWarn, "gateway",
                    cluster_name_ + " publish-quota-reject tenant=" + tenant);
      face_->putNack(interest, ndn::NackReason::kQuotaExceeded);
      return;
    }
    reject(stored.toString());
    return;
  }
  counters_->publishesAccepted.inc();
  LIDC_LOG(kInfo, "gateway") << cluster_name_ << " stored published object "
                             << objectName.toUri();
  replyKv(interest.name(),
          {{"stored", objectName.toUri()},
           {"bytes", std::to_string(payload.size())},
           {"cluster", cluster_name_}},
          options_.statusFreshness);
}

void Gateway::onJobFinished(const k8s::Job& job) {
  // Status GC: remember when the job turned terminal so its status
  // entry can be retired after the retention window.
  if (options_.enableStatusGc) {
    terminal_[job.name()] = forwarder_.simulator().now();
  }
  auto it = launched_.find(job.name());
  if (it == launched_.end()) return;  // not one of ours (or already reaped)
  const ComputeRequest& request = it->second.request;
  const ndn::Name canonical = request.canonicalName();
  inflight_.erase(canonical);

  // The gateway only learns scheduling/execution boundaries at terminal
  // state, so the K8s spans are recorded retroactively under the launch
  // decision's span.
  if (tracer_ != nullptr && it->second.trace) {
    const auto& st = job.status();
    if (st.startTime >= it->second.launchedAt) {
      tracer_->recordSpan("k8s-schedule", "k8s:" + cluster_name_,
                          it->second.trace, it->second.launchedAt, st.startTime);
      if (st.completionTime >= st.startTime) {
        tracer_->recordSpan(
            "k8s-exec", "k8s:" + cluster_name_, it->second.trace, st.startTime,
            st.completionTime,
            {{"state", std::string(k8s::jobStateName(st.state))}});
      }
    }
    tracer_->bindJob(job.name(), it->second.trace.trace);
  }

  if (job.status().state == k8s::JobState::kCompleted) {
    if (options_.enableResultCache && request.requestId.empty()) {
      cache_.put(canonical, CachedResult{job.name(), job.status().resultPath,
                                         job.status().outputBytes,
                                         forwarder_.simulator().now()});
    }
    if (predictor_ != nullptr) {
      predictor_->record(request,
                         job.status().completionTime - job.status().startTime);
    }
  }
  // Erase before releasing: releaseJob drains the admission queue, which
  // can synchronously launch work and mutate launched_ under us.
  const std::string tenant = it->second.tenant;
  const std::uint64_t cpu = it->second.chargedCpu;
  const std::uint64_t mem = it->second.chargedMem;
  launched_.erase(it);
  if (admission_ != nullptr && !tenant.empty()) {
    admission_->releaseJob(tenant, cpu, mem);
  }
}

void Gateway::attachTelemetry(telemetry::MetricsRegistry& registry,
                              telemetry::Tracer* tracer) {
  tracer_ = tracer;
  metrics_registry_ = &registry;
  if (admission_) admission_->attachTelemetry(registry);
  const telemetry::Labels labels{{"cluster", cluster_name_}};
  auto adopt = [&](const char* name, telemetry::Counter& counter) {
    registry.adopt(name, labels, {counters_, &counter});
  };
  GatewayCounters& c = *counters_;
  adopt("lidc_gateway_compute_received", c.computeReceived);
  adopt("lidc_gateway_compute_rejected", c.computeRejected);
  adopt("lidc_gateway_jobs_launched", c.jobsLaunched);
  adopt("lidc_gateway_cache_hits", c.cacheHits);
  adopt("lidc_gateway_inflight_dedup", c.inflightDedup);
  adopt("lidc_gateway_status_received", c.statusReceived);
  adopt("lidc_gateway_capacity_rejected", c.capacityRejected);
  adopt("lidc_gateway_info_received", c.infoReceived);
  adopt("lidc_gateway_publishes_accepted", c.publishesAccepted);
  adopt("lidc_gateway_publishes_rejected", c.publishesRejected);
  adopt("lidc_gateway_health_rejected", c.healthRejected);
  adopt("lidc_gateway_orphans_reaped", c.orphansReaped);
  adopt("lidc_gateway_vanished_evicted", c.vanishedEvicted);
  adopt("lidc_gateway_blackout_dropped", c.blackoutDropped);
  adopt("lidc_gateway_gray_admitted", c.grayAdmitted);
  adopt("lidc_ckpt_restores_total", c.ckptRestores);
  adopt("lidc_ckpt_restore_failures_total", c.ckptRestoreFailures);
  adopt("lidc_status_evicted_total", c.statusEvicted);
  adopt("lidc_status_alias_served_total", c.aliasServed);
  // The result cache keeps its own counts; they and the gauges are
  // read at snapshot time.
  collector_ = registry.registerCollector([this, &registry, labels] {
    registry.counter("lidc_result_cache_hits", labels).set(cache_.hits());
    registry.counter("lidc_result_cache_misses", labels).set(cache_.misses());
    registry.gauge("lidc_result_cache_size", labels)
        .set(static_cast<double>(cache_.size()));
    registry.gauge("lidc_gateway_healthy_node_fraction", labels)
        .set(healthyNodeFraction());
  });
}

double Gateway::healthyNodeFraction() const {
  const std::size_t nodes = cluster_.nodeCount();
  if (nodes == 0) return 0.0;
  return static_cast<double>(cluster_.readyNodeCount()) /
         static_cast<double>(nodes);
}

void Gateway::evictJob(const std::string& jobId, bool forgetStatus) {
  auto it = launched_.find(jobId);
  if (it == launched_.end()) return;
  // Only drop the dedup entry if it still points at this job — a fresh
  // identical request may have re-populated it with a newer job id.
  const ndn::Name canonical = it->second.request.canonicalName();
  if (auto inflightIt = inflight_.find(canonical);
      inflightIt != inflight_.end() && inflightIt->second == jobId) {
    inflight_.erase(inflightIt);
  }
  const std::string tenant = it->second.tenant;
  const std::uint64_t cpu = it->second.chargedCpu;
  const std::uint64_t mem = it->second.chargedMem;
  launched_.erase(it);
  if (forgetStatus) jobs_.forget(jobId);
  if (admission_ != nullptr && !tenant.empty()) {
    admission_->releaseJob(tenant, cpu, mem);
  }
}

void Gateway::scheduleReaper() {
  // Lazy arming: no recurring event while nothing is launched, so
  // simulations with a drained job table still run to completion.
  if (!options_.enableOrphanReaper || reaper_pending_ || launched_.empty()) {
    return;
  }
  reaper_pending_ = true;
  forwarder_.simulator().scheduleAfter(options_.reaperInterval, [this] {
    reaper_pending_ = false;
    reapOrphans();
    scheduleReaper();
  });
}

void Gateway::reapOrphans() {
  const sim::Time now = forwarder_.simulator().now();
  std::vector<std::string> victims;
  for (const auto& [jobId, record] : launched_) {
    auto status = jobs_.status(jobId);
    if (!status.ok()) {
      // Job object gone (e.g. cluster state lost): dangling entry.
      victims.push_back(jobId);
      continue;
    }
    // Only Pending counts as "stuck": a Running job has a completion
    // event scheduled and will reach a terminal state on its own, but a
    // pod that cannot be scheduled (cluster lost its nodes, capacity
    // gone for good) waits forever.
    if (status->state == k8s::JobState::kPending &&
        now - record.launchedAt > options_.orphanTtl) {
      victims.push_back(jobId);
    }
  }
  for (const auto& jobId : victims) {
    counters_->orphansReaped.inc();
    LIDC_LOG(kInfo, "gateway")
        << cluster_name_ << " reaped orphaned job " << jobId;
    evictJob(jobId, /*forgetStatus=*/true);
  }

  // Status-namespace GC rides along with the reaper sweep (no extra
  // timer: terminal-only state is otherwise evicted on touch).
  if (options_.enableStatusGc) {
    for (auto it = terminal_.begin(); it != terminal_.end();) {
      if (now - it->second > options_.statusRetention) {
        counters_->statusEvicted.inc();
        jobs_.forget(it->first);
        it = terminal_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = status_aliases_.begin(); it != status_aliases_.end();) {
      // An alias lives as long as its successor's status entry: while
      // the restored job is still running (migrations can outlive the
      // retention window many times over), pollers of the old name must
      // keep being answered. Retention ages the alias from the
      // successor's *terminal* time; createdAt only covers successors
      // that vanished without ever turning terminal here.
      bool expired;
      if (auto t = terminal_.find(it->second.jobId); t != terminal_.end()) {
        expired = now - t->second > options_.statusRetention;
      } else {
        expired = now - it->second.createdAt > options_.statusRetention &&
                  !jobs_.status(it->second.jobId).ok();
      }
      it = expired ? status_aliases_.erase(it) : std::next(it);
    }
  }
}

void Gateway::addStatusAlias(const std::string& oldCluster,
                             const std::string& oldJobId,
                             const std::string& newJobId) {
  status_aliases_[oldCluster + "/" + oldJobId] =
      StatusAlias{newJobId, forwarder_.simulator().now()};
  // Exact route for the old status name: its 5 components beat the dead
  // cluster's 4-component /ndn/k8s/status/<cluster> registration in
  // longest-prefix match, so existing pollers are steered here without
  // learning the new name.
  forwarder_.registerPrefix(makeStatusName(oldCluster, oldJobId), face_id_,
                            /*cost=*/0);
  LIDC_FR_EVENT(recorder_, kInfo, "gateway",
                cluster_name_ + " status-alias " + oldCluster + "/" +
                    oldJobId + " -> " + newJobId);
}

}  // namespace lidc::core
