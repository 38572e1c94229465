// WorkflowEngine: runs a WorkflowSpec on top of LidcClient. Every ready
// stage is dispatched concurrently through the client's retry/failover/
// deadline machinery; each stage's result is published to the data lake
// under the deterministic /ndn/k8s/data/wf/<wf_id>/<stage> name so
// downstream stages (possibly on different clusters) pull it by name.
//
// Locality-aware placement: when enabled, a stage's request carries
// out=wf/<id>/<stage>, so the producing job writes the intermediate
// straight into the lake of the cluster that ran it — zero bytes cross
// the overlay. Consumer stages declare intermediates as dataset=
// entries, so gateways whose lake lacks the object nack (NoRoute) and
// the named network itself biases the consumer toward the cluster
// already holding the producer's output. With locality off the engine
// does the naive thing instead — fetch the result to the client and
// republish it anycast — and counts every byte moved, making the bias
// measurable (bench_workflow).
//
// Failure handling reuses the client's failover loop per stage and adds
// lineage recovery on top: when a stage fails and one of its upstream
// intermediates turns out to be unreachable (its cluster died with its
// lake), the producer is reset and recomputed on a surviving cluster —
// so killing a cluster mid-workflow still completes every stage.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/predictor.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "workflow/spec.hpp"

namespace lidc::workflow {

enum class StageState {
  kPending,    // waiting on upstream outputs (or dispatch capacity)
  kRunning,    // submitted; the client is driving it to completion
  kStaging,    // job done; intermediate being fetched + republished
  kCompleted,  // output available under the wf intermediate name
  kFailed,     // terminal failure after all retries
  kSkipped,    // not run: an upstream failed, or fail-fast aborted
};

std::string_view stageStateName(StageState state) noexcept;

/// What happens to the rest of the DAG when a stage fails terminally.
enum class FailurePolicy {
  kFailFast,             // skip every stage not already running
  kContinueIndependent,  // skip only transitive dependents; independent
                         // branches run to completion
};

struct WorkflowOptions {
  FailurePolicy failurePolicy = FailurePolicy::kFailFast;
  /// Bias consumer stages toward the cluster holding their inputs (see
  /// file comment). Off = fetch + republish every intermediate anycast.
  bool localityAware = true;
  /// Concurrency cap on dispatched stages. 0 = unbounded (DAG order
  /// alone limits parallelism); 1 = strictly sequential in topo order.
  std::size_t maxConcurrentStages = 0;
  /// Engine-level re-runs per stage on top of the client's own submit
  /// retries and failovers (lineage recovery consumes this budget).
  int maxStageRetries = 2;
  /// Observer for the engine's event log ("t=..s dispatch <stage>"
  /// lines), invoked as events are appended. Narration hook.
  std::function<void(const std::string&)> observer;
  /// Fleet-health gate on dispatch: when fleetHealth() (caller-composed,
  /// e.g. max over TelemetryCollector::healthScore of the clusters that
  /// could run work) drops below minFleetHealth, ready stages are held
  /// back and re-checked every healthRecheckInterval instead of burning
  /// stage retries into a degraded fleet. Zero threshold = disabled.
  std::function<double()> fleetHealth;
  double minFleetHealth = 0.0;
  sim::Duration healthRecheckInterval = sim::Duration::millis(500);
  /// Straggler hedging: a Running stage that exceeds hedgeMultiplier x
  /// its predicted runtime (floored at hedgeFloor; the floor alone when
  /// the predictor has no estimate) gets a backup dispatch with a fresh
  /// request id. First terminal leg settles the stage; a slow-node
  /// straggler loses the race instead of stretching the makespan.
  bool enableHedging = false;
  double hedgeMultiplier = 3.0;
  sim::Duration hedgeFloor = sim::Duration::seconds(30);
  /// Tenant context carried by every stage request. When set, each
  /// submit is stamped with params["tenant"] so a tenant-aware client
  /// routes it under /ndn/k8s/submit/<tenant>/ and the gateway's
  /// admission controller charges this workflow's jobs against the
  /// tenant's quotas. Empty = untenanted (legacy compute path).
  std::string tenant;
  /// Lookahead pre-staging (replica plane): when a producer stage
  /// dispatches, this fires once per consumer with the inputs that
  /// consumer already has available (lake datasets + completed
  /// upstream intermediates), so a PrestageCoordinator can stream them
  /// toward compute while the producer is still running.
  std::function<void(const std::string& consumerStage,
                     const std::vector<std::string>& inputs)>
      prestageHook;
  /// Dispatch-time input staging: invoked with a stage's full dataset
  /// list before its submit; the continuation receives the bytes moved
  /// over the overlay *at dispatch* (0 when lookahead already staged
  /// everything — the measurable win of predictive pre-staging). The
  /// engine records the bytes per stage and in the outcome.
  std::function<void(const std::string& stage,
                     const std::vector<std::string>& inputs,
                     std::function<void(std::uint64_t)> done)>
      ensureInputsLocal;
  /// Checkpoint restore on retry (migration plane): invoked with the
  /// stage name and the job id of the failed attempt before a retry is
  /// dispatched. Returning extra request params (typically ckpt=<job>/
  /// <epoch> + ckpt_digest=<pin>) makes the retry *resume* the stage
  /// from its latest checkpoint instead of recomputing it; an empty map
  /// retries cold. Consulted before lineage recovery would recompute
  /// upstream producers, so saved work is preferred over recompute.
  std::function<std::map<std::string, std::string>(
      const std::string& stage, const std::string& jobId)>
      restoreParamsHook;
};

/// Terminal per-stage report.
struct StageStatus {
  StageState state = StageState::kPending;
  std::string cluster;      // where the (last) attempt ran
  std::string outputName;   // /ndn/k8s/data/wf/<id>/<stage> when completed
  std::uint64_t outputBytes = 0;
  sim::Duration runtime;    // job runtime reported by the cluster
  int failovers = 0;        // client-level failovers of the last attempt
  int retries = 0;          // engine-level re-runs (incl. lineage resets)
  std::string error;        // last failure, empty when completed
  sim::Time dispatchedAt;
  sim::Time finishedAt;
  /// Bytes moved at dispatch to make this stage's inputs local
  /// (ensureInputsLocal); 0 when pre-staging already delivered them.
  std::uint64_t dispatchStagingBytes = 0;
  /// Job id of the last attempt that acked (restoreParamsHook input).
  std::string lastJobId;
};

/// Aggregated outcome of one workflow run.
struct WorkflowOutcome {
  std::string id;
  bool succeeded = false;  // every stage completed
  std::map<std::string, StageStatus> stages;
  sim::Duration makespan;  // run() -> last stage terminal
  /// Intermediate bytes the engine moved over the overlay (fetches +
  /// republishes while staging). Zero under locality-aware placement.
  std::uint64_t intermediateBytesMoved = 0;
  /// Input bytes moved at stage dispatch time (ensureInputsLocal
  /// across all stages). Zero when lookahead pre-staging kept every
  /// dispatch local.
  std::uint64_t dispatchBytesMoved = 0;
  /// Producer stages recomputed because their output became unreachable.
  int lineageRecoveries = 0;
  /// Stage retries that resumed from a checkpoint (restoreParamsHook
  /// returned params) instead of recomputing from scratch.
  int checkpointRestores = 0;
  /// Deterministic event log; byte-identical across same-seed runs.
  std::string trace;
};

/// Engine activity across all runs, exported once telemetry is attached.
struct WorkflowCounters {
  telemetry::Counter runs;
  telemetry::Counter runsSucceeded;
  telemetry::Counter runsFailed;
  telemetry::Counter stagesDispatched;
  telemetry::Counter stageRetries;
  telemetry::Counter stageHedges;  // straggler hedges launched
  telemetry::Counter stageHedgesWon;  // ... and won by the backup leg
  telemetry::Counter lineageRecoveries;
  telemetry::Counter bytesMoved;  // intermediate bytes fetched + republished
};

class WorkflowEngine {
 public:
  explicit WorkflowEngine(core::LidcClient& client, WorkflowOptions options = {});

  using DoneCallback = std::function<void(Result<WorkflowOutcome>)>;

  /// Validates the spec and drives it to a terminal outcome. The
  /// callback receives an error only for invalid specs; execution
  /// failures are reported per stage inside the outcome.
  void run(WorkflowSpec spec, DoneCallback done);

  /// Builds the compute request a stage would be dispatched with —
  /// exposed so tests can assert on the semantic names the engine emits.
  [[nodiscard]] core::ComputeRequest buildRequest(const WorkflowSpec& spec,
                                                  const StageSpec& stage) const;

  /// Online per-(app, input) runtime model fed by completed stages;
  /// ready stages are dispatched longest-predicted-first so the DAG's
  /// critical path starts as early as possible.
  [[nodiscard]] core::CompletionTimePredictor& predictor() noexcept {
    return predictor_;
  }

  [[nodiscard]] const WorkflowCounters& counters() const noexcept { return *counters_; }
  [[nodiscard]] std::uint64_t stagesDispatched() const noexcept {
    return counters_->stagesDispatched;
  }
  [[nodiscard]] std::uint64_t stageHedges() const noexcept {
    return counters_->stageHedges;
  }

  /// Exports WorkflowCounters into `registry` (lidc_workflow_*) plus a
  /// makespan histogram. With
  /// a tracer every run() opens a root "workflow" span; stage spans and
  /// the client/forwarder/gateway/K8s spans beneath them all share it.
  void attachTelemetry(telemetry::MetricsRegistry& registry,
                       telemetry::Tracer* tracer = nullptr);

 private:
  struct Run;
  struct StageRace;

  void dispatchReady(const std::shared_ptr<Run>& run);
  void dispatchStage(const std::shared_ptr<Run>& run, std::size_t index);
  /// Fires the lookahead prestage hook (once per consumer per run)
  /// when the producer at `producerIndex` starts running.
  void firePrestage(const std::shared_ptr<Run>& run, std::size_t producerIndex);
  /// Launches the dispatch race (primary leg + hedge watchdog).
  void launchStage(const std::shared_ptr<Run>& run, std::size_t index,
                   std::shared_ptr<core::ComputeRequest> request);
  /// Runs one leg (primary or hedge) of a stage's dispatch race.
  void launchStageLeg(const std::shared_ptr<Run>& run, std::size_t index,
                      std::shared_ptr<core::ComputeRequest> request,
                      std::shared_ptr<StageRace> race, bool isHedge);
  /// Schedules the straggler-hedge timer for a just-dispatched stage
  /// (no-op unless enableHedging).
  void armStageHedge(const std::shared_ptr<Run>& run, std::size_t index,
                     std::shared_ptr<core::ComputeRequest> request,
                     std::shared_ptr<StageRace> race);
  void stageIntermediate(const std::shared_ptr<Run>& run, std::size_t index,
                         const std::string& resultPath);
  void completeStage(const std::shared_ptr<Run>& run, std::size_t index);
  void handleStageFailure(const std::shared_ptr<Run>& run, std::size_t index,
                          const Status& why);
  /// Probes the availability of a failed stage's upstream intermediates
  /// and resets unreachable producers (lineage recovery).
  void probeInputsAndRecover(const std::shared_ptr<Run>& run, std::size_t index);
  void failTerminally(const std::shared_ptr<Run>& run, std::size_t index);
  void skipDependents(const std::shared_ptr<Run>& run, std::size_t index);
  void maybeFinish(const std::shared_ptr<Run>& run);
  void trace(const std::shared_ptr<Run>& run, const std::string& line);

  /// Registry handles + tracer; null until attachTelemetry().
  struct Telemetry {
    telemetry::Histogram* makespanUs = nullptr;
    telemetry::Tracer* tracer = nullptr;
  };

  core::LidcClient& client_;
  WorkflowOptions options_;
  core::CompletionTimePredictor predictor_;
  std::shared_ptr<WorkflowCounters> counters_ = std::make_shared<WorkflowCounters>();
  std::unique_ptr<Telemetry> telemetry_;
};

}  // namespace lidc::workflow
