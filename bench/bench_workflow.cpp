// Workflow engine bench.
//
// Claim (paper SI/SVII): scientific workflows are DAGs of named compute
// stages whose intermediates live in the data lake, and data–compute
// affinity decides the bill for moving them. This bench runs a
// fan-out/fan-in pipeline (prep -> t1..t4 -> merge) on a two-cluster
// overlay and reports (a) DAG-concurrent vs strictly sequential
// makespan and (b) intermediate bytes moved over the overlay with
// locality-aware placement on vs off. Results also land in
// BENCH_workflow.json for machine tracking.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "apps/transform_app.hpp"
#include "bench_util.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "workflow/engine.hpp"

namespace {

using namespace lidc;

constexpr std::size_t kInputBytes = 256 * 1024;
constexpr int kFanOut = 4;

std::vector<std::uint8_t> rawInput() {
  std::vector<std::uint8_t> bytes(kInputBytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>("ACGT"[i % 4]);
  }
  return bytes;
}

/// prep fans out to kFanOut transforms which merge back — the smallest
/// DAG where concurrency and data placement both matter.
workflow::WorkflowSpec pipelineSpec() {
  workflow::WorkflowSpec spec;
  spec.id = "bench";

  workflow::StageSpec prep;
  prep.name = "prep";
  prep.app = "transform";
  prep.cpu = MilliCpu::fromCores(2);
  prep.memory = ByteSize::fromGiB(1);
  prep.lakeInputs = {"raw/sample"};
  spec.addStage(prep);

  workflow::StageSpec merge;
  merge.name = "merge";
  merge.app = "transform";
  merge.cpu = MilliCpu::fromCores(2);
  merge.memory = ByteSize::fromGiB(1);

  for (int i = 0; i < kFanOut; ++i) {
    workflow::StageSpec stage;
    stage.name = "t" + std::to_string(i);
    stage.app = "transform";
    stage.cpu = MilliCpu::fromCores(2);
    stage.memory = ByteSize::fromGiB(1);
    stage.params["tag"] = "branch-" + std::to_string(i);
    stage.stageInputs = {{"prep", "input"}};
    spec.addStage(stage);
    merge.stageInputs.push_back({stage.name, ""});
  }
  spec.addStage(merge);
  return spec;
}

struct RunResult {
  workflow::WorkflowOutcome outcome;
  std::uint64_t bytesMoved = 0;
};

/// Builds a fresh two-cluster world (near/far) and runs the pipeline
/// with the given engine options. Deterministic per configuration.
std::optional<RunResult> runScenario(workflow::WorkflowOptions options) {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  for (const std::string& name : {std::string("near"), std::string("far")}) {
    core::ComputeClusterConfig config;
    config.name = name;
    config.nodeCount = 4;
    config.perNode = k8s::Resources{MilliCpu::fromCores(8), ByteSize::fromGiB(16)};
    // Locality-off staging republishes the ~1 MiB merge output.
    config.gateway.maxPublishBytes = 8u << 20;
    auto& cc = overlay.addCluster(config);
    // ~8 s per 256 KiB stage so orchestration overheads don't dominate.
    apps::TransformConfig slow;
    slow.bytesPerSecondPerCore = 32'768.0;
    slow.scalingEfficiency = 0.0;
    apps::installTransformApp(cc.cluster(), cc.store(), slow);
    ndn::Name rawName = core::kDataPrefix;
    rawName.append("raw").append("sample");
    (void)cc.store().put(rawName, rawInput());
  }
  overlay.connect("client-host", "near", net::LinkParams{sim::Duration::millis(5)});
  overlay.connect("client-host", "far", net::LinkParams{sim::Duration::millis(40)});
  overlay.announceCluster("near");
  overlay.announceCluster("far");

  core::ClientOptions clientOptions;
  clientOptions.statusPollInterval = sim::Duration::seconds(1);
  core::LidcClient client(*overlay.topology().node("client-host"), "bench-user",
                          clientOptions, /*seed=*/777);
  workflow::WorkflowEngine engine(client, std::move(options));

  std::optional<RunResult> result;
  engine.run(pipelineSpec(), [&](Result<workflow::WorkflowOutcome> r) {
    if (r.ok()) result = RunResult{std::move(r).value(), 0};
  });
  sim.run();
  if (result.has_value()) result->bytesMoved = engine.counters().bytesMoved;
  return result;
}

}  // namespace

int main() {
  using bench::fmt;

  bench::printHeader("Workflow DAG orchestration (prep -> t1..t4 -> merge)");
  std::printf("input %zu KiB, %d-way fan-out, two clusters (5 ms / 40 ms)\n",
              kInputBytes / 1024, kFanOut);

  workflow::WorkflowOptions dag;  // concurrent, locality-aware
  workflow::WorkflowOptions sequential;
  sequential.maxConcurrentStages = 1;
  workflow::WorkflowOptions noLocality;
  noLocality.localityAware = false;

  const auto dagRun = runScenario(dag);
  const auto seqRun = runScenario(sequential);
  const auto noLocRun = runScenario(noLocality);
  if (!dagRun || !seqRun || !noLocRun || !dagRun->outcome.succeeded ||
      !seqRun->outcome.succeeded || !noLocRun->outcome.succeeded) {
    std::printf("FATAL: a workflow run did not complete\n");
    return 1;
  }

  const double dagMakespan = dagRun->outcome.makespan.toSeconds();
  const double seqMakespan = seqRun->outcome.makespan.toSeconds();

  bench::printHeader("DAG-concurrent vs sequential makespan");
  bench::printRow({"mode", "makespan_s", "stages", "succeeded"});
  bench::printRule(4);
  bench::printRow({"dag-concurrent", fmt(dagMakespan),
                   std::to_string(dagRun->outcome.stages.size()),
                   dagRun->outcome.succeeded ? "yes" : "no"});
  bench::printRow({"sequential", fmt(seqMakespan),
                   std::to_string(seqRun->outcome.stages.size()),
                   seqRun->outcome.succeeded ? "yes" : "no"});
  std::printf("speedup: %sx\n", fmt(seqMakespan / dagMakespan).c_str());

  bench::printHeader("locality-aware placement vs naive staging");
  bench::printRow({"placement", "bytes_moved", "makespan_s"});
  bench::printRule(3);
  bench::printRow({"locality-on", std::to_string(dagRun->bytesMoved),
                   fmt(dagMakespan)});
  bench::printRow({"locality-off", std::to_string(noLocRun->bytesMoved),
                   fmt(noLocRun->outcome.makespan.toSeconds())});

  bench::JsonReport report("workflow");
  report.add("dag_makespan_s", dagMakespan);
  report.add("sequential_makespan_s", seqMakespan);
  report.add("speedup", seqMakespan / dagMakespan);
  report.add("locality_on_bytes_moved", static_cast<double>(dagRun->bytesMoved));
  report.add("locality_off_bytes_moved",
             static_cast<double>(noLocRun->bytesMoved));
  report.add("locality_off_makespan_s", noLocRun->outcome.makespan.toSeconds());
  report.add("stages", static_cast<double>(dagRun->outcome.stages.size()));
  report.write();

  const bool dagFaster = dagMakespan < seqMakespan;
  const bool localityCheaper = dagRun->bytesMoved < noLocRun->bytesMoved;
  std::printf("\nDAG faster than sequential: %s; locality moves fewer bytes: %s\n",
              dagFaster ? "yes" : "NO (regression)",
              localityCheaper ? "yes" : "NO (regression)");
  return dagFaster && localityCheaper ? 0 : 1;
}
