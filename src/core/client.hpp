// LidcClient: the user-side application (the paper's "sample client
// application", SIV-A). Expresses semantically named compute Interests,
// polls /ndn/k8s/status, and retrieves results from the data lake —
// without ever naming a cluster.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/circuit_breaker.hpp"
#include "core/semantic_name.hpp"
#include "datalake/retriever.hpp"
#include "k8s/job.hpp"
#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace lidc::core {

/// Outcome of a compute submission.
struct SubmitResult {
  std::string jobId;
  std::string cluster;       // which cluster took the job (informational)
  std::string statusName;    // poll here
  bool cached = false;       // answered from a result cache
  bool deduplicated = false; // joined an in-flight identical job
  std::string resultPath;    // set when cached
  std::uint64_t outputBytes = 0;
  sim::Duration placementLatency;  // Interest out -> ack back
};

/// One status poll answer.
struct JobStatusSnapshot {
  k8s::JobState state = k8s::JobState::kPending;
  std::string cluster;
  std::string resultPath;
  std::uint64_t outputBytes = 0;
  sim::Duration runtime;
  std::string error;
};

/// A cluster's advertised capabilities (/ndn/k8s/info/<cluster>).
struct ClusterInfo {
  std::string cluster;
  MilliCpu freeCpu;
  ByteSize freeMemory;
  MilliCpu totalCpu;
  ByteSize totalMemory;
  std::size_t runningJobs = 0;
  std::size_t nodes = 0;
  std::vector<std::string> apps;
};

/// Terminal outcome of runToCompletion().
struct JobOutcome {
  SubmitResult submit;         // the ack of the attempt that finished
  JobStatusSnapshot finalStatus;
  sim::Duration totalLatency;  // first submit -> terminal status observed
  int failovers = 0;           // resubmissions after Failed / dark status
  /// Root of the job's span tree when tracing was attached (trace id +
  /// root span id); invalid otherwise.
  telemetry::TraceContext trace;
};

struct ClientOptions {
  /// Attach a unique request id to every submission, bypassing result
  /// caches (false = canonical names; identical requests may be served
  /// from caches, the paper's SVII behaviour).
  bool bypassCache = true;
  sim::Duration interestLifetime = sim::Duration::seconds(10);
  sim::Duration statusPollInterval = sim::Duration::seconds(2);
  /// Extra submit attempts on timeout or a retryable Nack (kCongestion /
  /// kNoRoute), paced by exponential backoff below.
  int maxSubmitRetries = 2;
  /// waitForCompletion() tolerates this many *consecutive* failed polls
  /// (lossy networks, route flaps) before giving up.
  int maxStatusPollFailures = 5;
  /// Exponential backoff between submit attempts: attempt n waits
  /// backoffInitial * backoffMultiplier^n (capped at backoffMax), scaled
  /// by a seeded jitter factor in [1-backoffJitter, 1+backoffJitter].
  sim::Duration backoffInitial = sim::Duration::millis(200);
  double backoffMultiplier = 2.0;
  sim::Duration backoffMax = sim::Duration::seconds(5);
  double backoffJitter = 0.2;
  /// Wall-clock budget for one runToCompletion() request, covering every
  /// retry, poll, and failover. Zero = unbounded.
  sim::Duration deadline{};
  /// runToCompletion() resubmits (with a fresh request id, so the
  /// forwarding strategy can fail over to a healthy cluster) when a job
  /// lands Failed or its status endpoint goes dark past the poll budget.
  int maxFailovers = 2;
  /// Telemetry-steered proactive failover: when set and a submit ack
  /// names a cluster whose health (as reported by this provider, e.g.
  /// TelemetryCollector::healthScore) is below minClusterHealth, the
  /// client fails over with a fresh request id instead of parking the
  /// job on a degraded cluster. Zero threshold = disabled.
  std::function<double(const std::string& cluster)> healthProvider;
  double minClusterHealth = 0.0;
  /// Per-cluster circuit breakers: runToCompletion() records every job
  /// outcome against the cluster that took it; after `breaker.
  /// failureThreshold` consecutive failures the breaker opens and acks
  /// naming that cluster are refused locally (the attempt fails over
  /// with a fresh request id instead of parking on a gray cluster).
  bool enableCircuitBreaker = false;
  BreakerOptions breaker;
  /// Observes every breaker transition (wire to placement steering,
  /// e.g. AdaptivePlacement::observeBreaker).
  std::function<void(const std::string& cluster, BreakerState state)>
      breakerListener;
  /// Hedged submits: when a submit ack has not arrived after a
  /// p`hedgeQuantile` delay (derived from this client's observed ack
  /// latencies, floored at hedgeDelayFloor), a backup Interest with a
  /// fresh request id races the primary; the first answer wins and the
  /// loser is abandoned (and counted).
  bool enableHedging = false;
  sim::Duration hedgeDelayFloor = sim::Duration::millis(500);
  double hedgeQuantile = 0.99;
  /// Progress watchdog: a job still Pending this long after polling
  /// began is treated as dark (gray gateways admit jobs that never
  /// run), so runToCompletion() records a breaker failure and fails
  /// over. Zero disables the watchdog.
  sim::Duration pendingProgressTtl{};
  /// Tenant context: when set, submits go out under the tenant-scoped
  /// /ndn/k8s/submit/<tenant>/... namespace (QoS gateways apply quotas
  /// and fair-share queueing) and publishes carry a tenant component
  /// charged against the tenant's byte quota. A kQuotaExceeded nack maps
  /// to RESOURCE_EXHAUSTED and backs off quotaBackoffScale times slower
  /// than ordinary retries — quota pressure is global, so hammering the
  /// overlay cannot help.
  std::string tenant;
  double quotaBackoffScale = 4.0;
};

/// Client activity counters, exported once telemetry is attached.
struct ClientCounters {
  telemetry::Counter submits;  // compute/submit Interests sent (every attempt and leg)
  telemetry::Counter retries;  // backoff-and-resend steps
  telemetry::Counter failovers;  // resubmissions after a lost or failed job
  telemetry::Counter statusPolls;
  telemetry::Counter hedgesIssued;
  telemetry::Counter hedgesWon;
  telemetry::Counter hedgesCancelled;
  telemetry::Counter breakerTrips;  // breakers that opened
  telemetry::Counter breakerSteered;  // attempts steered off an open breaker
  telemetry::Counter watchdogTimeouts;  // Pending jobs given up as stuck
};

class LidcClient {
 public:
  LidcClient(ndn::Forwarder& forwarder, std::string name, ClientOptions options = {},
             std::uint64_t seed = 1234);

  using SubmitCallback = std::function<void(Result<SubmitResult>)>;
  using StatusCallback = std::function<void(Result<JobStatusSnapshot>)>;
  using OutcomeCallback = std::function<void(Result<JobOutcome>)>;
  using FetchCallback = datalake::Retriever::CompletionCallback;

  /// Sends the compute Interest; the callback fires with the gateway ack
  /// (job id / cached result) or an error. `parent` (optional) attaches
  /// the submit-attempt spans to an existing trace.
  void submit(ComputeRequest request, SubmitCallback done,
              telemetry::TraceContext parent = {});

  /// One status poll by status name ("/ndn/k8s/status/<cluster>/<job>").
  void queryStatus(const ndn::Name& statusName, StatusCallback done,
                   telemetry::TraceContext parent = {});

  /// Polls until the job reaches Completed or Failed.
  void waitForCompletion(const ndn::Name& statusName, StatusCallback done,
                         telemetry::TraceContext parent = {});

  /// Full workflow: submit -> poll -> final status (Fig. 5's timeline).
  /// With a tracer attached, opens a root "job" span (or a child of
  /// `parent`) covering every retry, poll, and failover; the outcome
  /// carries its TraceContext.
  void runToCompletion(ComputeRequest request, OutcomeCallback done,
                       telemetry::TraceContext parent = {});

  /// Retrieves a named object from the data lake. `flowTag` (e.g.
  /// "wf/<id>") rides the segment Interests as a FlowLabel alongside
  /// the client's tenant, so link flow accounting can attribute the
  /// transferred bytes; empty means untagged.
  void fetchData(const ndn::Name& objectName, FetchCallback done,
                 telemetry::TraceContext parent = {},
                 std::string flowTag = {});

  /// Queries a cluster's advertised capabilities (paper SVII: "once the
  /// network knows cluster capabilities, it can select the best cluster").
  using InfoCallback = std::function<void(Result<ClusterInfo>)>;
  void queryClusterInfo(const std::string& cluster, InfoCallback done);

  /// Publishes a dataset into the nearest lake that accepts publishes
  /// (paper: workflows "publish intermediate datasets back to the
  /// lake"). `path` is '/'-separated under /ndn/k8s/data. The callback
  /// receives the stored content name.
  using PublishCallback = std::function<void(Result<ndn::Name>)>;
  void publishData(const std::string& path, std::vector<std::uint8_t> bytes,
                   PublishCallback done, telemetry::TraceContext parent = {},
                   std::string flowTag = {});

  /// Exports ClientCounters into `registry` (lidc_client_*, hedge,
  /// breaker and watchdog counters) plus an end-to-end latency
  /// histogram and — with a tracer — records the client-side span tree
  /// for every runToCompletion().
  void attachTelemetry(telemetry::MetricsRegistry& registry,
                       telemetry::Tracer* tracer = nullptr);
  [[nodiscard]] telemetry::Tracer* tracer() noexcept {
    return telemetry_ ? telemetry_->tracer : nullptr;
  }

  /// Records retry/backoff and failover steps into `recorder` for
  /// alert post-mortem windows.
  void setFlightRecorder(telemetry::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const ClientCounters& counters() const noexcept { return *counters_; }
  /// The breaker guarding `cluster`, or nullptr when none exists yet
  /// (no job outcome has been recorded against it, or breakers are
  /// disabled).
  [[nodiscard]] CircuitBreaker* clusterBreaker(const std::string& cluster) noexcept {
    auto it = breakers_.find(cluster);
    return it == breakers_.end() ? nullptr : it->second.get();
  }

  /// The simulator this client's forwarder runs on; layered components
  /// (e.g. the workflow engine) need it for timestamps and scheduling.
  [[nodiscard]] sim::Simulator& simulator() noexcept {
    return forwarder_.simulator();
  }

  /// Times at which submit Interests actually left this client (one
  /// entry per attempt, across all submissions). Exposed so tests can
  /// assert that backoff schedules are deterministic per seed.
  [[nodiscard]] const std::vector<sim::Time>& submitAttemptLog() const noexcept {
    return submit_attempt_log_;
  }

 private:
  struct HedgeRace;

  void submitAttempt(std::shared_ptr<ComputeRequest> request, int attempt,
                     sim::Time startedAt, sim::Time deadlineAt,
                     SubmitCallback done, telemetry::TraceContext parent);
  /// Hedged variant: a primary leg plus (after the hedge delay) a
  /// backup leg with a fresh request id; first ack settles the race.
  void submitAttemptHedged(std::shared_ptr<ComputeRequest> request, int attempt,
                           sim::Time startedAt, sim::Time deadlineAt,
                           SubmitCallback done, telemetry::TraceContext parent);
  /// Sends one leg of a hedge race.
  void sendSubmitLeg(std::shared_ptr<HedgeRace> race, bool isHedge,
                     std::shared_ptr<ComputeRequest> legRequest,
                     std::shared_ptr<ComputeRequest> request, int attempt,
                     sim::Time startedAt, sim::Time deadlineAt,
                     SubmitCallback done, telemetry::TraceContext parent);
  /// p`hedgeQuantile` of observed ack latencies, floored at
  /// hedgeDelayFloor (used until enough samples accumulate).
  [[nodiscard]] sim::Duration hedgeDelay() const;
  void recordAckLatency(sim::Duration latency);
  /// The breaker guarding `cluster`, created (seeded from the client
  /// seed and the cluster name) on first use; nullptr when breakers are
  /// disabled or the cluster is unknown.
  CircuitBreaker* breakerFor(const std::string& cluster);
  /// Retries after a jittered backoff delay, or fails with `why` when
  /// the attempt budget or the deadline is exhausted.
  void retryOrGiveUp(std::shared_ptr<ComputeRequest> request, int attempt,
                     sim::Time startedAt, sim::Time deadlineAt,
                     SubmitCallback done, Status why,
                     telemetry::TraceContext parent);
  [[nodiscard]] sim::Duration backoffDelay(int attempt);
  /// What stays fixed over one waitForCompletion(): built once per wait
  /// and shared by every poll and re-arm, so a poll copies no callback.
  struct PollState {
    ndn::Name statusName;
    sim::Time deadlineAt;
    StatusCallback done;
    telemetry::TraceContext parent;
  };
  /// `progressSince` anchors the Pending watchdog: it is the last time
  /// the job was observed making progress (poll start, or any
  /// non-Pending state).
  void pollLoop(std::shared_ptr<const PollState> poll, int consecutiveFailures,
                sim::Time progressSince);
  /// One submit+poll attempt of the runToCompletion() failover loop.
  void runAttempt(std::shared_ptr<ComputeRequest> request, int failover,
                  sim::Time startedAt, sim::Time deadlineAt,
                  OutcomeCallback done, telemetry::TraceContext root);
  /// Resubmits with a fresh request id within the failover/deadline
  /// budget; otherwise reports `why` (or `failedOutcome` when the job
  /// terminated Failed and no budget remains).
  void failoverOrGiveUp(std::shared_ptr<ComputeRequest> request, int failover,
                        sim::Time startedAt, sim::Time deadlineAt,
                        OutcomeCallback done, Status why,
                        std::optional<JobOutcome> failedOutcome,
                        telemetry::TraceContext root);
  [[nodiscard]] sim::Time deadlineFor(sim::Time startedAt) const;
  /// The Interest name a request goes out under: the tenant-scoped
  /// submit name when a tenant context is set, else the compute name.
  [[nodiscard]] ndn::Name requestName(const ComputeRequest& request) const;

  /// Registry handles + tracer; null until attachTelemetry().
  struct Telemetry {
    telemetry::Histogram* jobLatencyUs = nullptr;
    telemetry::Tracer* tracer = nullptr;
    /// Kept for the lazily created per-cluster lidc_breaker_state gauge.
    telemetry::MetricsRegistry* registry = nullptr;
  };

  ndn::Forwarder& forwarder_;
  std::string name_;
  ClientOptions options_;
  telemetry::FlightRecorder* recorder_ = nullptr;
  Rng rng_;
  std::uint64_t seed_;
  std::shared_ptr<ndn::AppFace> face_;
  std::unique_ptr<datalake::Retriever> retriever_;
  std::shared_ptr<ClientCounters> counters_ = std::make_shared<ClientCounters>();
  std::uint64_t next_request_id_ = 1;
  std::vector<sim::Time> submit_attempt_log_;
  std::unique_ptr<Telemetry> telemetry_;
  /// cluster name -> its circuit breaker (created on first outcome).
  std::unordered_map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
  /// Ring buffer of submit-ack latencies in seconds (hedge-delay input).
  std::vector<double> ack_latencies_;
  std::size_t ack_latency_next_ = 0;
};

}  // namespace lidc::core
