// Shared pieces of the LIDC end-to-end benchmark: host clocks, the
// in-memory span recorder, the job ledger every workload fills, and the
// helpers that read the layers' public counters from outside.
//
// The benchmark only calls public APIs. Host time is measured around
// the benchmark's own calls into a layer; everything else comes from
// counters the layers already expose.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/overlay.hpp"
#include "k8s/job.hpp"
#include "qos/tenant.hpp"
#include "sim/simulator.hpp"

namespace lidcbench {

using namespace lidc;

inline std::int64_t hostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- spans -------------------------------------------------------------

/// One call the benchmark made into a layer. Spans nest strictly (the
/// simulator is single-threaded), so a span's children are the spans
/// opened while it was open.
struct Span {
  std::string name;
  std::string layer;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;        // index of the enclosing span, -1 for roots
  std::int64_t job = -1;  // logical job the span belongs to, -1 if none
};

class SpanRecorder {
 public:
  int open(std::string_view name, std::string_view layer, std::int64_t job);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Self time per layer: each span's duration minus the time its
  /// direct children cover.
  [[nodiscard]] std::map<std::string, double> selfNsByLayer() const;
  /// The spans as a JSON array (written out when the run ends).
  [[nodiscard]] std::string toJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The recorder of the current traced round; null when untraced.
SpanRecorder*& activeRecorder();

/// Records one span on the active recorder; no-op when untraced.
class ScopedSpan {
 public:
  ScopedSpan(std::string_view name, std::string_view layer, std::int64_t job = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_ = -1;
};

// --- host tallies ------------------------------------------------------

/// Always-on host accounting of one round (two clock reads per call).
struct HostTally {
  std::int64_t simNs = 0;      // inside Simulator::run / runUntil
  std::int64_t appNs = 0;      // inside app runners (nested in simNs)
  std::int64_t alignNs = 0;    // inside MiniBlast runners (part of appNs)
  std::int64_t publishNs = 0;  // the benchmark's own lake publishes
  std::int64_t fetchNs = 0;    // the benchmark's own lake fetches
  std::uint64_t simEvents = 0;
  std::uint64_t pendingPeak = 0;
  std::uint64_t pitPeak = 0;
  std::uint64_t queuePeak = 0;
  std::uint64_t alignJobs = 0;
  std::uint64_t readsAligned = 0;
};

// --- jobs --------------------------------------------------------------

struct JobRecord {
  sim::Time due;
  sim::Time done;
  int terminals = 0;
  bool completed = false;
  double placementS = -1.0;  // submit -> ack, when the client reports it
  int failovers = 0;
  std::string cluster;
};

/// Logical jobs of one round, keyed by the order they were declared.
class JobLedger {
 public:
  std::size_t add(sim::Time due) {
    jobs_.push_back(JobRecord{due, {}, 0, false, -1.0, 0, {}});
    ++open_;
    return jobs_.size() - 1;
  }
  /// Records a terminal outcome; a second one for the same job is kept
  /// (terminals > 1) and fails the exactly-once check.
  JobRecord& settle(std::size_t id, sim::Time at, bool completed) {
    JobRecord& job = jobs_[id];
    if (job.terminals++ == 0) {
      job.done = at;
      job.completed = completed;
      --open_;
    }
    return job;
  }
  [[nodiscard]] const std::vector<JobRecord>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] bool allSettled() const noexcept { return open_ == 0; }

 private:
  std::vector<JobRecord> jobs_;
  std::size_t open_ = 0;  // jobs without a terminal outcome yet
};

// --- one round ---------------------------------------------------------

/// What one run of a workload (a "round") produced. Everything except
/// the host fields is simulated and must be identical for one seed.
struct RoundResult {
  double setupS = 0.0;     // host seconds to build the world and inputs
  double hostS = 0.0;      // host seconds of the timed phase
  std::size_t workUnits = 0;  // completed jobs (stages on genomics_dag)
  std::vector<JobRecord> jobs;
  double linkBytes = 0.0;
  /// Deterministic per-layer counters read from public accessors.
  std::map<std::string, double> counters;
  HostTally tally;
  std::vector<std::string> errors;
};

/// State a workload needs while it runs one round.
struct RoundContext {
  std::uint64_t seed = 0;
  HostTally tally;
  std::vector<std::string> errors;
};

/// Fails the round with a message (the run then exits nonzero).
inline void expect(RoundContext& ctx, bool ok, const std::string& what) {
  if (!ok) ctx.errors.push_back(what);
}

/// Runs the simulator in fixed sim-time chunks until `finished()` holds
/// (or `limit` passes), timing each chunk and sampling queue depths
/// between chunks with `sample`.
void runChunks(sim::Simulator& sim, RoundContext& ctx,
               const std::function<bool()>& finished, sim::Time limit,
               const std::function<void()>& sample);

/// Runs the simulator until its queue drains (quiescence).
void drain(sim::Simulator& sim, RoundContext& ctx);

/// Wraps an app runner so its host time is counted (and traced).
k8s::AppRunner timedRunner(k8s::AppRunner inner, RoundContext& ctx,
                           bool aligner);

/// Registers "sleeper" (sim runtime from the dur_ms=<ms> argument) and
/// maps the "sleep" app name to it.
void installSleeper(core::ComputeCluster& cluster, RoundContext& ctx);

/// Samples the PIT sizes of every node and the QoS queue depths.
void sampleQueues(core::ClusterOverlay& overlay, RoundContext& ctx);

/// Reads forwarder, face, gateway and QoS counters into `out` and the
/// bytes carried over links into `linkBytes`.
void readOverlayCounters(core::ClusterOverlay& overlay,
                         const qos::TenantRegistry* tenants,
                         std::map<std::string, double>& out, double& linkBytes);

/// Free k8s resources of every cluster, for the quiescence check.
std::map<std::string, std::uint64_t> freeResources(core::ClusterOverlay& overlay);

/// Quiescence: simulator queue empty, every PIT empty, k8s free
/// resources back to `freeAtStart`, and QoS in-flight/queued work zero.
void checkQuiescent(sim::Simulator& sim, core::ClusterOverlay& overlay,
                    const std::map<std::string, std::uint64_t>& freeAtStart,
                    const qos::TenantRegistry* tenants, RoundContext& ctx);

/// Every job reached exactly one terminal outcome.
void checkExactlyOnce(const JobLedger& ledger, RoundContext& ctx);

/// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> values);

/// FNV-1a over bytes (result digests and fingerprints).
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 1469598103934665603ULL);

/// Conditioned Poisson arrivals: `count` arrival times uniform over
/// [0, window), sorted — a Poisson process given its count.
std::vector<sim::Time> arrivals(Rng& rng, std::size_t count, sim::Duration window);

// --- workloads ---------------------------------------------------------

/// Runs one round of a workload; the round rebuilds its world from the
/// seed, so every round of a run replays the same simulation.
RoundResult runControlPlane(RoundContext& ctx);
RoundResult runGenomicsDag(RoundContext& ctx);
RoundResult runChaosMix(RoundContext& ctx);

struct ProbeResult {
  std::string name;
  double value = 0.0;  // median over the probe's batches
  std::string unit;
};

/// Layer probes: time single public functions on inputs shaped like the
/// workload.
std::vector<ProbeResult> runProbes(const std::string& workload, std::uint64_t seed);

}  // namespace lidcbench
