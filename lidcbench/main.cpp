// lidcbench: one benchmark for LIDC. Runs a named workload from a seed,
// checks its outputs, and prints every metric by name with its unit.
//
//   lidcbench --workload <control_plane|genomics_dag|chaos_mix>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// A run repeats "rounds" of the workload until --seconds have passed
// (at least kMinRounds). Each round rebuilds its world from the seed,
// so every round replays the same simulation: the sim-time metrics of
// all rounds must be identical, and host metrics are medians over the
// rounds after the first (the warm-up). With --trace 1 the rounds
// alternate untraced/traced; the traced ones record spans around the
// benchmark's calls into each layer and give the per-layer metrics.
//
// The last line of stdout is one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// Any failed check prints the reason to stderr and exits 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

#ifndef LIDCBENCH_BUILD_TYPE
#define LIDCBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define LIDCBENCH_COMPILER "clang " __clang_version__
#else
#define LIDCBENCH_COMPILER "g++ " __VERSION__
#endif

namespace lidcbench {
namespace {

constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 200;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// Everything simulated in a round, as text: identical for one seed.
std::string fingerprint(const RoundResult& round) {
  std::ostringstream out;
  out.precision(17);
  for (const JobRecord& job : round.jobs) {
    out << job.due.toNanos() << ':' << job.done.toNanos() << ':' << job.completed
        << ':' << job.terminals << ':' << job.failovers << ':' << job.cluster << '\n';
  }
  for (const auto& [name, value] : round.counters) out << name << '=' << value << '\n';
  out << "link_bytes=" << round.linkBytes << '\n'
      << "events=" << round.tally.simEvents << '\n'
      << "reads_aligned=" << round.tally.readsAligned << '\n';
  return out.str();
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           jsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

bool parseArgs(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out") {
      options.outDir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty();
}

using WorkloadFn = RoundResult (*)(RoundContext&);

WorkloadFn findWorkload(const std::string& name) {
  if (name == "control_plane") return runControlPlane;
  if (name == "genomics_dag") return runGenomicsDag;
  if (name == "chaos_mix") return runChaosMix;
  return nullptr;
}

RoundResult runRound(WorkloadFn fn, std::uint64_t seed, SpanRecorder* recorder) {
  RoundContext ctx;
  ctx.seed = seed;
  activeRecorder() = recorder;
  RoundResult round = fn(ctx);
  activeRecorder() = nullptr;
  round.tally = ctx.tally;
  round.errors = std::move(ctx.errors);
  return round;
}

double hostMsPerJob(const RoundResult& round) {
  return round.workUnits == 0 ? 0.0
                              : round.hostS * 1000.0 / static_cast<double>(round.workUnits);
}

/// Sim-time end-to-end metrics of one round.
void simMetrics(const RoundResult& round, std::vector<Metric>& out) {
  std::vector<double> latencies;
  double first = 0.0;
  double last = 0.0;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < round.jobs.size(); ++i) {
    const JobRecord& job = round.jobs[i];
    if (i == 0 || job.due.toSeconds() < first) first = job.due.toSeconds();
    last = std::max(last, job.done.toSeconds());
    if (job.completed) {
      ++completed;
      latencies.push_back((job.done - job.due).toSeconds());
    }
  }
  out.push_back({"makespan_s", last - first, "s"});
  out.push_back({"job_latency_p50_s", percentile(latencies, 0.50), "s"});
  out.push_back({"job_latency_p99_s", percentile(latencies, 0.99), "s"});
  out.push_back({"completed_frac",
                 round.jobs.empty() ? 0.0
                                    : static_cast<double>(completed) /
                                          static_cast<double>(round.jobs.size()),
                 "ratio"});
  out.push_back({"link_mb", round.linkBytes / 1e6, "MB"});
}

double counter(const RoundResult& round, const std::string& name) {
  auto it = round.counters.find(name);
  return it == round.counters.end() ? 0.0 : it->second;
}

/// Per-layer metrics: deterministic counters of the first round, host
/// tallies as medians over the untraced rounds, self-time shares from
/// the traced rounds, and the probe phase.
std::vector<Metric> layerMetrics(const Options& options,
                                 const std::vector<RoundResult>& untraced,
                                 const std::vector<RoundResult>& traced,
                                 const std::vector<std::map<std::string, double>>& selfNs) {
  const RoundResult& first = untraced.front();
  const double jobs = static_cast<double>(std::max<std::size_t>(1, first.jobs.size()));
  const HostTally& t = first.tally;
  std::vector<Metric> m;
  auto add = [&m](const std::string& name, double value, const std::string& unit) {
    m.push_back({name, value, unit});
  };
  std::vector<const RoundResult*> timed;
  for (std::size_t i = 1; i < untraced.size(); ++i) timed.push_back(&untraced[i]);
  if (timed.empty()) timed.push_back(&first);
  auto hostMedian = [&timed](auto&& f) {
    std::vector<double> v;
    for (const RoundResult* r : timed) v.push_back(f(*r));
    return median(v);
  };

  // sim
  add("sim.events", static_cast<double>(t.simEvents), "count");
  add("sim.events_per_job", static_cast<double>(t.simEvents) / jobs, "count");
  add("sim.host_ns_per_event", hostMedian([](const RoundResult& r) {
        return r.tally.simEvents == 0
                   ? 0.0
                   : static_cast<double>(r.tally.simNs - r.tally.appNs) /
                         static_cast<double>(r.tally.simEvents);
      }),
      "ns");
  add("sim.pending_peak", static_cast<double>(t.pendingPeak), "count");
  // ndn
  const double csLookups = counter(first, "ndn.cs_hits") + counter(first, "ndn.cs_misses");
  add("ndn.interests_in", counter(first, "ndn.interests_in"), "count");
  add("ndn.data_out", counter(first, "ndn.data_out"), "count");
  add("ndn.interests_per_job", counter(first, "ndn.interests_in") / jobs, "count");
  add("ndn.cs_hit_ratio", csLookups == 0 ? 0.0 : counter(first, "ndn.cs_hits") / csLookups,
      "ratio");
  add("ndn.unsatisfied", counter(first, "ndn.unsatisfied"), "count");
  add("ndn.no_route", counter(first, "ndn.no_route"), "count");
  add("ndn.integrity_drops", counter(first, "ndn.integrity_drops"), "count");
  add("ndn.pit_peak", static_cast<double>(t.pitPeak), "count");
  // net
  add("net.bytes", counter(first, "net.bytes"), "B");
  add("net.nacks", counter(first, "net.nacks"), "count");
  // k8s
  add("k8s.jobs_launched", counter(first, "k8s.jobs_launched"), "count");
  add("k8s.capacity_rejected", counter(first, "k8s.capacity_rejected"), "count");
  // core
  std::vector<double> placement;
  double failovers = 0.0;
  double failed = 0.0;
  for (const JobRecord& job : first.jobs) {
    if (job.placementS >= 0) placement.push_back(job.placementS * 1000.0);
    failovers += job.failovers;
    failed += job.completed ? 0.0 : 1.0;
  }
  add("core.compute_received", counter(first, "core.compute_received"), "count");
  add("core.status_polls_per_job", counter(first, "core.status_received") / jobs, "count");
  add("core.cache_hits", counter(first, "core.cache_hits"), "count");
  add("core.health_rejected", counter(first, "core.health_rejected"), "count");
  add("core.failovers", failovers, "count");
  add("core.failed_jobs", failed, "count");
  add("core.placement_latency_p50_ms", percentile(placement, 0.5), "ms");
  // qos
  add("qos.admitted", counter(first, "qos.admitted"), "count");
  add("qos.rejected", counter(first, "qos.rejected"), "count");
  add("qos.preempted", counter(first, "qos.preempted"), "count");
  add("qos.queue_depth_peak", static_cast<double>(t.queuePeak), "count");
  // datalake
  add("datalake.publish_host_ms",
      hostMedian([](const RoundResult& r) { return static_cast<double>(r.tally.publishNs) / 1e6; }),
      "ms");
  add("datalake.fetch_host_ms",
      hostMedian([](const RoundResult& r) { return static_cast<double>(r.tally.fetchNs) / 1e6; }),
      "ms");
  add("datalake.bytes_published", counter(first, "datalake.bytes_published"), "B");
  // genomics
  add("genomics.align_host_ms_per_job", hostMedian([](const RoundResult& r) {
        return r.tally.alignJobs == 0 ? 0.0
                                      : static_cast<double>(r.tally.alignNs) / 1e6 /
                                            static_cast<double>(r.tally.alignJobs);
      }),
      "ms");
  add("genomics.host_share", hostMedian([](const RoundResult& r) {
        return r.hostS <= 0 ? 0.0 : static_cast<double>(r.tally.alignNs) / 1e9 / r.hostS;
      }),
      "ratio");
  add("genomics.reads_aligned", static_cast<double>(t.readsAligned), "count");
  // workflow, replica, migrate
  for (const char* name : {"workflow.stages_dispatched", "workflow.stage_hedges",
                           "workflow.bytes_moved", "replica.bytes_moved",
                           "replica.local_hits", "replica.failures",
                           "migrate.ckpt_written", "migrate.ckpt_bytes",
                           "migrate.migrations_completed", "migrate.migrations_failed"}) {
    const std::string n = name;
    add(n, counter(first, n), n.find("bytes") != std::string::npos ? "B" : "count");
  }
  // trace: overhead of tracing, and each layer's share of traced self time
  std::vector<double> tracedMs;
  for (const RoundResult& r : traced) tracedMs.push_back(hostMsPerJob(r));
  const double untracedMs = hostMedian([](const RoundResult& r) { return hostMsPerJob(r); });
  add("trace.overhead_pct",
      untracedMs <= 0 ? 0.0 : (median(tracedMs) / untracedMs - 1.0) * 100.0, "%");
  for (const char* layer : {"sim", "core", "k8s", "genomics", "workflow", "datalake", "bench"}) {
    std::vector<double> shares;
    for (const auto& self : selfNs) {
      double total = 0.0;
      for (const auto& [name, ns] : self) total += ns;
      auto it = self.find(layer);
      shares.push_back(total <= 0 || it == self.end() ? 0.0 : it->second / total);
    }
    add(std::string("trace.self_share.") + layer, median(shares), "ratio");
  }
  for (const ProbeResult& probe : runProbes(options.workload, options.seed)) {
    add(probe.name, probe.value, probe.unit);
  }
  return m;
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  file << text;
}

int run(const Options& options) {
  const WorkloadFn fn = findWorkload(options.workload);
  if (fn == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  std::vector<std::map<std::string, double>> selfNs;
  SpanRecorder lastTrace;
  std::string reference;
  const std::int64_t begin = hostNs();
  for (int round = 0; round < kMaxRounds; ++round) {
    const double elapsed = static_cast<double>(hostNs() - begin) / 1e9;
    const int minRounds = options.trace ? 2 * kMinRounds - 1 : kMinRounds;
    if (round >= minRounds && elapsed >= options.seconds) break;
    // Traced runs alternate untraced and traced rounds after the warm-up.
    const bool traceThis = options.trace && round % 2 == 1;
    SpanRecorder recorder;
    RoundResult result = runRound(fn, options.seed, traceThis ? &recorder : nullptr);
    for (const std::string& error : result.errors) {
      std::fprintf(stderr, "CHECK FAILED [%s seed=%llu round=%d]: %s\n",
                   options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                   round, error.c_str());
    }
    if (!result.errors.empty()) return 1;
    const std::string print = fingerprint(result);
    if (round == 0) {
      reference = print;
    } else if (print != reference) {
      std::fprintf(stderr,
                   "CHECK FAILED [%s seed=%llu round=%d]: sim-time results differ from "
                   "round 0 (%s traced) for the same seed\n",
                   options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                   round, traceThis ? "" : "un");
      return 1;
    }
    if (traceThis) {
      selfNs.push_back(recorder.selfNsByLayer());
      lastTrace = std::move(recorder);
      traced.push_back(std::move(result));
    } else {
      untraced.push_back(std::move(result));
    }
  }

  const RoundResult& first = untraced.front();
  std::vector<Metric> metrics;
  std::size_t timedRounds = 0;
  std::string samples;  // per timed round: host_ms_per_job/setup_s
  if (options.trace) {
    // Probe spans join the last traced round's spans in the trace file.
    activeRecorder() = &lastTrace;
    metrics = layerMetrics(options, untraced, traced, selfNs);
    activeRecorder() = nullptr;
    writeFile(options.outDir + "/trace-" + options.workload + "-" +
                  std::to_string(options.seed) + ".json",
              lastTrace.toJson());
    timedRounds = traced.size();
  } else {
    std::vector<double> setup;
    std::vector<double> perJob;
    for (std::size_t i = 1; i < untraced.size(); ++i) {
      setup.push_back(untraced[i].setupS);
      perJob.push_back(hostMsPerJob(untraced[i]));
    }
    timedRounds = perJob.size();
    for (std::size_t i = 0; i < perJob.size(); ++i) {
      samples += (i == 0 ? "" : ", ") + jsonNumber(perJob[i]) + "/" + jsonNumber(setup[i]);
    }
    metrics.push_back({"setup_s", median(setup), "s"});
    metrics.push_back({"host_ms_per_job", median(perJob), "ms"});
    metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    simMetrics(first, metrics);
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto* rounds : {&untraced, &traced}) {
    for (const RoundResult& r : *rounds) {
      attempted += r.jobs.size();
      for (const JobRecord& job : r.jobs) failed += job.completed ? 0 : 1;
    }
  }
  std::size_t completedJobs = 0;
  for (const JobRecord& job : first.jobs) completedJobs += job.completed ? 1 : 0;
  char provenance[4096];
  std::snprintf(provenance, sizeof(provenance),
                "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
                "\"rounds\": %zu, \"timed_rounds\": %zu, \"jobs_per_round\": %zu, "
                "\"latency_samples\": %zu, \"sim_fingerprint\": \"%s\", "
                "\"host_ms_per_job/setup_s\": \"%s\"}",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                options.trace ? 1 : 0, LIDCBENCH_BUILD_TYPE, LIDCBENCH_COMPILER,
                std::thread::hardware_concurrency(), untraced.size() + traced.size(),
                timedRounds, first.jobs.size(), completedJobs,
                hex(fnv1a(reference.data(), reference.size())).c_str(),
                samples.substr(0, 3000).c_str());
  const std::string result = std::string("{\"correct\": true, \"attempted\": ") +
                             std::to_string(attempted) + ", \"failed\": " +
                             std::to_string(failed) + ", \"metrics\": " +
                             metricsJson(metrics) + "}";
  writeFile(options.outDir + "/result-" + options.workload + "-" +
                std::to_string(options.seed) + "-t" + (options.trace ? "1" : "0") + ".json",
            std::string("{\"provenance\": ") + provenance + ", \"result\": " + result + "}\n");
  std::printf("provenance %s\n%s\n", provenance, result.c_str());
  return 0;
}

}  // namespace
}  // namespace lidcbench

int main(int argc, char** argv) {
  lidcbench::Options options;
  if (!lidcbench::parseArgs(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: lidcbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n");
    return 2;
  }
  return lidcbench::run(options);
}
