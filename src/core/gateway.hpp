// The LIDC Gateway (paper SIII-C, Fig. 4): the decision-maker running
// at each cluster's edge. It receives compute Interests from the NDN
// network, parses the semantic name, runs application-specific
// validation, launches a Kubernetes Job, and answers with the job id.
// It also serves /ndn/k8s/status/<cluster>/<job_id> queries and — for
// canonical (request-id-free) names — a result cache so identical
// requests never recompute (paper SVII).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

#include "core/job_manager.hpp"
#include "core/predictor.hpp"
#include "core/result_cache.hpp"
#include "core/semantic_name.hpp"
#include "core/validators.hpp"
#include "core/wire_format.hpp"
#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"
#include "qos/admission.hpp"
#include "qos/tenant.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace lidc::core {

struct GatewayOptions {
  bool enableResultCache = true;
  std::size_t cacheCapacity = 256;
  sim::Duration cacheTtl = sim::Duration::hours(24);
  /// Freshness on compute acks (lets the NDN content stores aggregate
  /// identical canonical requests network-wide).
  sim::Duration ackFreshness = sim::Duration::seconds(5);
  sim::Duration statusFreshness = sim::Duration::millis(500);
  /// Freshness on /ndn/k8s/info/<cluster> capability advertisements.
  sim::Duration infoFreshness = sim::Duration::seconds(2);
  /// Largest object accepted through a single publish command Interest.
  std::size_t maxPublishBytes = 1 << 20;
  /// Health gate: while the fraction of Ready nodes is below this, new
  /// compute Interests are nacked with kCongestion so the forwarding
  /// strategy fails over to a healthy cluster. 0 disables the gate.
  double minHealthyNodeFraction = 0.5;
  /// Orphan reaper: launched/in-flight bookkeeping for a job that is
  /// still non-terminal this long after launch is expired, so dedup can
  /// never join a dead job and status queries return a clean NotFound.
  sim::Duration orphanTtl = sim::Duration::minutes(10);
  sim::Duration reaperInterval = sim::Duration::seconds(30);
  bool enableOrphanReaper = true;
  /// Status-namespace GC: terminal job entries (and migration aliases)
  /// older than `statusRetention` are forgotten. Swept by the orphan
  /// reaper while it runs and evicted lazily when a poll touches an
  /// expired entry, so the status table cannot grow without bound — and
  /// no extra timer is armed for terminal-only state (idle simulations
  /// still drain).
  bool enableStatusGc = true;
  sim::Duration statusRetention = sim::Duration::minutes(30);
};

struct GatewayCounters {
  telemetry::Counter computeReceived;
  telemetry::Counter computeRejected;  // validation/parse failures
  telemetry::Counter jobsLaunched;
  telemetry::Counter cacheHits;  // served from the result cache
  telemetry::Counter inflightDedup;  // joined an already-running job
  telemetry::Counter statusReceived;
  telemetry::Counter capacityRejected;  // cluster could not fit the job
  telemetry::Counter infoReceived;  // capability queries served
  telemetry::Counter publishesAccepted;
  telemetry::Counter publishesRejected;
  telemetry::Counter healthRejected;  // nacked by the health gate
  telemetry::Counter orphansReaped;  // launched/inflight entries expired
  telemetry::Counter vanishedEvicted;  // evicted when the job object vanished
  telemetry::Counter blackoutDropped;  // Interests dropped during a blackout
  telemetry::Counter grayAdmitted;  // jobs "accepted" by a gray gateway
  telemetry::Counter ckptRestores;  // jobs launched from a checkpoint
  telemetry::Counter ckptRestoreFailures;  // stale/corrupt ckpt -> cold start
  telemetry::Counter statusEvicted;  // terminal status entries GC'd
  telemetry::Counter aliasServed;  // polls served through a migration alias
};

class Gateway {
 public:
  /// Attaches to `forwarder`, registering /ndn/k8s/compute and
  /// /ndn/k8s/status/<clusterName> toward a new AppFace.
  Gateway(ndn::Forwarder& forwarder, k8s::Cluster& cluster,
          ValidatorRegistry validators, GatewayOptions options = {},
          CompletionTimePredictor* predictor = nullptr);

  /// Enables /ndn/k8s/publish: clients push named objects into this
  /// cluster's data lake via command Interests.
  void enablePublish(datalake::ObjectStore& store);

  /// Enables the multi-tenant QoS front door: registers the
  /// /ndn/k8s/submit prefix and routes tenant-scoped submit Interests
  /// through an AdmissionController (rate limits, quotas, weighted fair
  /// queueing) before they reach the JobManager. Publishes carrying a
  /// tenant component are charged against the tenant's byte quota.
  void enableQos(qos::TenantRegistry& tenants,
                 qos::AdmissionOptions admission = {});

  /// Null until enableQos().
  [[nodiscard]] qos::AdmissionController* admission() noexcept {
    return admission_.get();
  }

  /// Enables checkpoint restore (migration plane): compute Interests
  /// carrying a ckpt=<job_id>/<epoch> param resume from the named
  /// /ndn/k8s/ckpt object in `store` instead of cold-starting. When the
  /// object is not in this lake the Interest is nacked kNoRoute, so the
  /// forwarding strategy steers the resume to a cluster holding a
  /// replica — checkpoints stay location-independent like any dataset.
  void enableCheckpointRestore(datalake::ObjectStore& store) noexcept {
    ckpt_store_ = &store;
  }

  /// Migration alias: /ndn/k8s/status/<oldCluster>/<oldJobId> polls are
  /// answered with the status of `newJobId` on this cluster, so pollers
  /// follow a migrated job without learning the new name. Registers the
  /// exact old status name on this gateway's forwarder — the
  /// 5-component route wins longest-prefix match over the dead
  /// cluster's 4-component status prefix.
  void addStatusAlias(const std::string& oldCluster,
                      const std::string& oldJobId, const std::string& newJobId);

  [[nodiscard]] const std::string& clusterName() const noexcept {
    return cluster_name_;
  }
  [[nodiscard]] JobManager& jobs() noexcept { return jobs_; }
  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }
  [[nodiscard]] const GatewayCounters& counters() const noexcept { return *counters_; }
  [[nodiscard]] ValidatorRegistry& validators() noexcept { return validators_; }
  [[nodiscard]] ndn::FaceId faceId() const noexcept { return face_id_; }

  /// Reject new jobs when the cluster's free capacity cannot fit them
  /// (the gateway nacks, letting the network fail over to another
  /// cluster). Enabled by default.
  void setAdmissionControl(bool enabled) noexcept { admission_control_ = enabled; }

  /// Simulated gateway-process outage: while blacked out every Interest
  /// is dropped silently (no Data, no Nack), so clients see PIT timeouts
  /// exactly as if the gateway pod died. Driven by the chaos engine.
  void setBlackout(bool on) noexcept { blackout_ = on; }
  [[nodiscard]] bool blackedOut() const noexcept { return blackout_; }

  /// Gray failure (chaos kGrayGateway): unlike a blackout, the gateway
  /// keeps answering — compute Interests get a plausible ack with a job
  /// id, but nothing is ever scheduled and status polls for those ids
  /// return Pending forever. Health probes, info queries, and real jobs'
  /// status keep working, so only a progress watchdog can tell. Jobs
  /// admitted during the gray window stay dark even after recovery (the
  /// fabricated ids never map to real work).
  void setGrayFailure(bool on) noexcept { gray_ = on; }
  [[nodiscard]] bool grayFailed() const noexcept { return gray_; }

  /// Fraction of this cluster's nodes currently Ready, in [0, 1].
  [[nodiscard]] double healthyNodeFraction() const;

  /// Exports GatewayCounters into `registry` (lidc_gateway_*{cluster=...})
  /// and reads the result-cache stats and the health gauge at snapshot
  /// time.
  /// With a tracer, traced compute Interests get a "gateway-admission"
  /// span, status serves get instants, and finished jobs get
  /// retroactive "k8s-schedule" / "k8s-exec" spans from the recorded
  /// launch and job timestamps.
  void attachTelemetry(telemetry::MetricsRegistry& registry,
                       telemetry::Tracer* tracer = nullptr);

  /// Records admission rejections and blackout drops into `recorder`,
  /// so fired alerts carry the gateway's recent decisions.
  void setFlightRecorder(telemetry::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
    if (admission_) admission_->setFlightRecorder(recorder);
  }

 private:
  void handleInterest(const ndn::Interest& interest);
  void onCompute(const ndn::Interest& interest);
  void onSubmit(const ndn::Interest& interest);
  /// The shared back half of the compute pipeline (validation, cache,
  /// dedup, capacity, launch, ack). Returns true iff a LaunchRecord was
  /// created — QoS launches use this to release usage for answers that
  /// hold no job (cache hits, dedups, rejections).
  bool processCompute(const ndn::Interest& interest,
                      const ComputeRequest& request, const std::string& tenant,
                      int priorityClass, bool checkCapacity);
  /// Gray-failure fabricated admission (shared by compute and submit).
  void grayAdmit(const ndn::Interest& interest);
  void onStatus(const ndn::Interest& interest);
  void onInfo(const ndn::Interest& interest);
  void onPublish(const ndn::Interest& interest);
  void replyKv(const ndn::Name& name, const KvMap& fields, sim::Duration freshness);
  void onJobFinished(const k8s::Job& job);
  /// Drops launched_/inflight_ bookkeeping for a job and (for orphans)
  /// the JobManager mapping, so dedup/status never reference it again.
  void evictJob(const std::string& jobId, bool forgetStatus);
  /// Arms the reaper timer if it is enabled, not already pending, and
  /// there are launched jobs to watch (lazy, so idle simulations drain).
  void scheduleReaper();
  /// One reaper sweep: expires vanished jobs and non-terminal orphans.
  void reapOrphans();

  ndn::Forwarder& forwarder_;
  k8s::Cluster& cluster_;
  std::string cluster_name_;
  ValidatorRegistry validators_;
  GatewayOptions options_;
  CompletionTimePredictor* predictor_;
  datalake::ObjectStore* publish_store_ = nullptr;
  qos::TenantRegistry* tenants_ = nullptr;
  std::unique_ptr<qos::AdmissionController> admission_;
  telemetry::MetricsRegistry* metrics_registry_ = nullptr;
  JobManager jobs_;
  ResultCache cache_;
  std::shared_ptr<ndn::AppFace> face_;
  ndn::FaceId face_id_ = ndn::kInvalidFaceId;
  std::shared_ptr<GatewayCounters> counters_ = std::make_shared<GatewayCounters>();
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::FlightRecorder* recorder_ = nullptr;
  bool admission_control_ = true;
  bool blackout_ = false;
  bool gray_ = false;
  std::uint64_t next_gray_id_ = 1;
  /// Fabricated job ids handed out while gray; status stays Pending.
  std::set<std::string> gray_jobs_;
  bool reaper_pending_ = false;
  /// Checkpoint lake for ckpt= restores (null until enableCheckpointRestore).
  datalake::ObjectStore* ckpt_store_ = nullptr;

  struct StatusAlias {
    std::string jobId;       // local job serving the old name
    sim::Time createdAt;     // GC fallback; normally ages from the
                             // successor's terminal time instead
  };
  /// "<oldCluster>/<oldJobId>" -> alias (migrated-in jobs).
  std::unordered_map<std::string, StatusAlias> status_aliases_;
  /// jobId -> terminal time, for status-namespace GC.
  std::unordered_map<std::string, sim::Time> terminal_;

  struct LaunchRecord {
    ComputeRequest request;
    sim::Time launchedAt;
    /// Trace of the Interest that launched the job (invalid when the
    /// submitter was not tracing); parents the retroactive K8s spans.
    telemetry::TraceContext trace;
    /// QoS bookkeeping: tenant the job was admitted for (empty on the
    /// legacy compute path) and the usage charged at admission, released
    /// when the job reaches a terminal state or is evicted.
    std::string tenant;
    std::uint64_t chargedCpu = 0;
    std::uint64_t chargedMem = 0;
  };

  /// canonical name -> jobId for jobs still in flight (dedup).
  std::unordered_map<ndn::Name, std::string, ndn::NameHash> inflight_;
  /// jobId -> originating request + launch time (cache/predictor
  /// bookkeeping and orphan expiry).
  std::unordered_map<std::string, LaunchRecord> launched_;
  telemetry::CollectorHandle collector_;
};

}  // namespace lidc::core
