// End-to-end tests of the workflow engine: a diamond DAG of transform
// stages running across a two-cluster overlay — concurrent dispatch,
// locality-aware placement with zero intermediate movement, failure
// policies, and the chaos run where a cluster dies mid-workflow and
// lineage recovery recomputes the lost intermediate on the survivor
// with a byte-identical trace per seed.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/transform_app.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "sim/chaos.hpp"
#include "workflow/engine.hpp"

namespace lidc {
namespace {

const std::string kRawPath = "raw/genome";

std::vector<std::uint8_t> rawBytes() {
  std::vector<std::uint8_t> bytes(1024);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>("ACGT"[i % 4]);
  }
  return bytes;
}

core::ClientOptions workflowClientOptions() {
  core::ClientOptions options;
  options.interestLifetime = sim::Duration::seconds(2);
  options.statusPollInterval = sim::Duration::seconds(1);
  options.maxSubmitRetries = 3;
  options.maxStatusPollFailures = 3;
  options.maxFailovers = 2;
  return options;
}

/// prep -> {left, right} -> merge, all transform stages.
workflow::WorkflowSpec diamondSpec(const std::string& id) {
  workflow::WorkflowSpec spec;
  spec.id = id;

  workflow::StageSpec prep;
  prep.name = "prep";
  prep.app = "transform";
  prep.cpu = MilliCpu::fromCores(1);
  prep.memory = ByteSize::fromGiB(1);
  prep.lakeInputs = {kRawPath};
  spec.addStage(prep);

  for (const std::string& side : {std::string("left"), std::string("right")}) {
    workflow::StageSpec stage;
    stage.name = side;
    stage.app = "transform";
    stage.cpu = MilliCpu::fromCores(1);
    stage.memory = ByteSize::fromGiB(1);
    stage.params["tag"] = side;
    stage.stageInputs = {{"prep", "input"}};
    spec.addStage(stage);
  }

  workflow::StageSpec merge;
  merge.name = "merge";
  merge.app = "transform";
  merge.cpu = MilliCpu::fromCores(1);
  merge.memory = ByteSize::fromGiB(1);
  merge.stageInputs = {{"left", ""}, {"right", ""}};
  spec.addStage(merge);
  return spec;
}

std::vector<std::uint8_t> expectedMergeBytes() {
  const auto raw = rawBytes();
  auto tagged = [&raw](const std::string& tag) {
    std::vector<std::uint8_t> out(tag.begin(), tag.end());
    out.push_back('\n');
    out.insert(out.end(), raw.begin(), raw.end());
    return out;
  };
  auto combined = tagged("left");
  const auto right = tagged("right");
  combined.insert(combined.end(), right.begin(), right.end());
  return combined;
}

/// Two clusters ("east" near, "west" far), the raw input in both lakes,
/// and a deliberately slow transform app (~10 s per stage) so stage
/// overlap and mid-stage faults are observable.
struct WorkflowScenario {
  explicit WorkflowScenario(workflow::WorkflowOptions engineOptions = {}) {
    overlay = std::make_unique<core::ClusterOverlay>(sim);
    overlay->addNode("client-host");
    east = &addTransformCluster("east");
    west = &addTransformCluster("west");
    overlay->connect("client-host", "east",
                     net::LinkParams{sim::Duration::millis(5)});
    overlay->connect("client-host", "west",
                     net::LinkParams{sim::Duration::millis(40)});
    overlay->announceCluster("east");
    overlay->announceCluster("west");

    client = std::make_unique<core::LidcClient>(
        *overlay->topology().node("client-host"), "wf-user",
        workflowClientOptions(), /*seed=*/777);
    engine = std::make_unique<workflow::WorkflowEngine>(*client, engineOptions);
  }

  core::ComputeCluster& addTransformCluster(const std::string& name) {
    core::ComputeClusterConfig config;
    config.name = name;
    config.nodeCount = 2;
    config.perNode = k8s::Resources{MilliCpu::fromCores(4), ByteSize::fromGiB(8)};
    auto& cc = overlay->addCluster(config);
    // Slow the stock transform down to ~10 s per KiB stage.
    apps::TransformConfig slow;
    slow.bytesPerSecondPerCore = 100.0;
    slow.scalingEfficiency = 0.0;
    apps::installTransformApp(cc.cluster(), cc.store(), slow);
    ndn::Name rawName = core::kDataPrefix;
    rawName.append("raw").append("genome");
    (void)cc.store().put(rawName, rawBytes());
    return cc;
  }

  /// Runs the spec to quiescence.
  void run(workflow::WorkflowSpec spec) {
    engine->run(std::move(spec), [this](Result<workflow::WorkflowOutcome> r) {
      outcome = std::move(r);
    });
    sim.run();
  }

  [[nodiscard]] std::vector<std::uint8_t> fetchIntermediate(
      const std::string& wfId, const std::string& stage) {
    std::vector<std::uint8_t> bytes;
    client->fetchData(workflow::intermediateName(wfId, stage),
                      [&bytes](Result<std::vector<std::uint8_t>> r) {
                        ASSERT_TRUE(r.ok()) << r.status();
                        bytes = std::move(r).value();
                      });
    sim.run();
    return bytes;
  }

  sim::Simulator sim;
  std::unique_ptr<core::ClusterOverlay> overlay;
  core::ComputeCluster* east = nullptr;
  core::ComputeCluster* west = nullptr;
  std::unique_ptr<core::LidcClient> client;
  std::unique_ptr<workflow::WorkflowEngine> engine;
  std::optional<Result<workflow::WorkflowOutcome>> outcome;
};

TEST(WorkflowEngineTest, DiamondCompletesWithConcurrentBranchesAndNoDataMovement) {
  WorkflowScenario scenario;
  scenario.run(diamondSpec("wf1"));

  ASSERT_TRUE(scenario.outcome.has_value());
  ASSERT_TRUE(scenario.outcome->ok()) << scenario.outcome->status();
  const auto& outcome = scenario.outcome->value();
  EXPECT_TRUE(outcome.succeeded);
  ASSERT_EQ(outcome.stages.size(), 4u);
  for (const auto& [name, st] : outcome.stages) {
    EXPECT_EQ(st.state, workflow::StageState::kCompleted) << name;
    EXPECT_EQ(st.outputName,
              workflow::intermediateName("wf1", name).toUri());
  }

  // Fan-out branches were dispatched together, not serialized.
  EXPECT_EQ(outcome.stages.at("left").dispatchedAt,
            outcome.stages.at("right").dispatchedAt);
  // The merge stage waited for both.
  EXPECT_GE(outcome.stages.at("merge").dispatchedAt.toNanos(),
            outcome.stages.at("left").finishedAt.toNanos());

  // Locality-aware placement: intermediates were written in place and
  // consumers pulled to the cluster holding them — nothing was staged.
  EXPECT_EQ(scenario.engine->counters().bytesMoved, 0u);
  EXPECT_EQ(outcome.intermediateBytesMoved, 0u);
  // All four stages ran on the near cluster that held prep's output.
  for (const auto& [name, st] : outcome.stages) {
    EXPECT_EQ(st.cluster, "east") << name;
  }

  // The merge output is retrievable by name and byte-correct.
  EXPECT_EQ(scenario.fetchIntermediate("wf1", "merge"), expectedMergeBytes());
}

TEST(WorkflowEngineTest, LocalityOffStagesIntermediatesAndCountsBytes) {
  workflow::WorkflowOptions options;
  options.localityAware = false;
  WorkflowScenario scenario(options);
  scenario.run(diamondSpec("wf2"));

  ASSERT_TRUE(scenario.outcome.has_value());
  ASSERT_TRUE(scenario.outcome->ok()) << scenario.outcome->status();
  const auto& outcome = scenario.outcome->value();
  EXPECT_TRUE(outcome.succeeded);

  // Every stage output crossed the overlay twice (fetch + republish).
  std::uint64_t totalOutput = 0;
  for (const auto& [name, st] : outcome.stages) totalOutput += st.outputBytes;
  EXPECT_EQ(outcome.intermediateBytesMoved, 2 * totalOutput);
  EXPECT_GT(outcome.intermediateBytesMoved, 0u);

  // The pipeline still produces the same bytes.
  EXPECT_EQ(scenario.fetchIntermediate("wf2", "merge"), expectedMergeBytes());
}

TEST(WorkflowEngineTest, SequentialModeIsSlowerThanDagConcurrent) {
  WorkflowScenario concurrent;
  concurrent.run(diamondSpec("wfc"));
  ASSERT_TRUE(concurrent.outcome->ok());

  workflow::WorkflowOptions sequentialOptions;
  sequentialOptions.maxConcurrentStages = 1;
  WorkflowScenario sequential(sequentialOptions);
  sequential.run(diamondSpec("wfs"));
  ASSERT_TRUE(sequential.outcome->ok());
  EXPECT_TRUE(sequential.outcome->value().succeeded);

  // The diamond has 3 levels but 4 stages: running left/right together
  // must beat running them back to back.
  EXPECT_LT(concurrent.outcome->value().makespan.toSeconds(),
            sequential.outcome->value().makespan.toSeconds());
}

TEST(WorkflowEngineTest, InvalidSpecFailsWithoutDispatching) {
  WorkflowScenario scenario;
  workflow::WorkflowSpec bad;
  bad.id = "bad";
  workflow::StageSpec a;
  a.name = "a";
  a.app = "transform";
  a.stageInputs = {{"ghost", ""}};
  bad.addStage(a);
  scenario.run(std::move(bad));

  ASSERT_TRUE(scenario.outcome.has_value());
  ASSERT_FALSE(scenario.outcome->ok());
  EXPECT_EQ(scenario.outcome->status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(scenario.engine->stagesDispatched(), 0u);
}

/// A broken stage (its input exists in no lake), an independent stage,
/// and a dependent of the broken one — dispatched one at a time so the
/// independent stage is still pending when the failure lands.
workflow::WorkflowSpec failureSpec(const std::string& id) {
  workflow::WorkflowSpec spec;
  spec.id = id;
  workflow::StageSpec broken;
  broken.name = "broken";
  broken.app = "transform";
  broken.cpu = MilliCpu::fromCores(1);
  broken.memory = ByteSize::fromGiB(1);
  broken.lakeInputs = {"missing/object"};
  spec.addStage(broken);

  workflow::StageSpec solo;
  solo.name = "solo";
  solo.app = "transform";
  solo.cpu = MilliCpu::fromCores(1);
  solo.memory = ByteSize::fromGiB(1);
  solo.lakeInputs = {kRawPath};
  spec.addStage(solo);

  workflow::StageSpec child;
  child.name = "child";
  child.app = "transform";
  child.cpu = MilliCpu::fromCores(1);
  child.memory = ByteSize::fromGiB(1);
  child.stageInputs = {{"broken", "input"}};
  spec.addStage(child);
  return spec;
}

TEST(WorkflowEngineTest, FailFastSkipsEverythingStillPending) {
  workflow::WorkflowOptions options;
  options.failurePolicy = workflow::FailurePolicy::kFailFast;
  options.maxConcurrentStages = 1;
  options.maxStageRetries = 0;
  WorkflowScenario scenario(options);
  scenario.run(failureSpec("wff"));

  ASSERT_TRUE(scenario.outcome->ok()) << scenario.outcome->status();
  const auto& outcome = scenario.outcome->value();
  EXPECT_FALSE(outcome.succeeded);
  EXPECT_EQ(outcome.stages.at("broken").state, workflow::StageState::kFailed);
  EXPECT_EQ(outcome.stages.at("solo").state, workflow::StageState::kSkipped);
  EXPECT_EQ(outcome.stages.at("child").state, workflow::StageState::kSkipped);
  EXPECT_NE(outcome.stages.at("child").error.find("fail-fast"),
            std::string::npos);
}

TEST(WorkflowEngineTest, ContinueIndependentRunsUnrelatedBranches) {
  workflow::WorkflowOptions options;
  options.failurePolicy = workflow::FailurePolicy::kContinueIndependent;
  options.maxConcurrentStages = 1;
  options.maxStageRetries = 0;
  WorkflowScenario scenario(options);
  scenario.run(failureSpec("wfi"));

  ASSERT_TRUE(scenario.outcome->ok()) << scenario.outcome->status();
  const auto& outcome = scenario.outcome->value();
  EXPECT_FALSE(outcome.succeeded);
  EXPECT_EQ(outcome.stages.at("broken").state, workflow::StageState::kFailed);
  // Only the transitive dependent is skipped; the independent branch ran.
  EXPECT_EQ(outcome.stages.at("solo").state, workflow::StageState::kCompleted);
  EXPECT_EQ(outcome.stages.at("child").state, workflow::StageState::kSkipped);
  EXPECT_NE(outcome.stages.at("child").error.find("'broken' failed"),
            std::string::npos);
}

/// The chaos scenario: east (near) takes the whole workflow, then dies
/// mid-branch — after prep's intermediate landed in its lake, while
/// left/right are running on it. Lineage recovery must recompute prep
/// on west and finish every stage there.
struct WorkflowChaosScenario : WorkflowScenario {
  explicit WorkflowChaosScenario(std::uint64_t chaosSeed) {
    chaos = std::make_unique<sim::ChaosEngine>(sim, chaosSeed);
    chaos->custom("east-dies",
                  sim::Time::fromNanos(0) + sim::Duration::seconds(16),
                  [this] { overlay->failCluster("east"); });
  }

  [[nodiscard]] std::string fingerprint() const {
    std::ostringstream out;
    if (!outcome.has_value()) return "<no outcome>";
    if (!outcome->ok()) return outcome->status().toString();
    const auto& o = outcome->value();
    for (const auto& [name, st] : o.stages) {
      out << name << ": state=" << workflow::stageStateName(st.state)
          << " cluster=" << st.cluster << " retries=" << st.retries
          << " done_ns=" << st.finishedAt.toNanos() << "\n";
    }
    out << "makespan_ns=" << o.makespan.toNanos() << "\n";
    out << "recoveries=" << o.lineageRecoveries << "\n";
    out << o.trace;
    out << chaos->traceString();
    return out.str();
  }

  std::unique_ptr<sim::ChaosEngine> chaos;
};

TEST(WorkflowEngineTest, ClusterDeathMidWorkflowRecoversLineageOnSurvivor) {
  WorkflowChaosScenario scenario(/*chaosSeed=*/4242);
  scenario.run(diamondSpec("wfx"));

  ASSERT_TRUE(scenario.outcome.has_value());
  ASSERT_TRUE(scenario.outcome->ok()) << scenario.outcome->status();
  const auto& outcome = scenario.outcome->value();
  EXPECT_TRUE(outcome.succeeded) << outcome.trace;

  // prep completed on east before the crash; its intermediate died with
  // the lake, so it was recomputed — and everything finished on west.
  EXPECT_GE(outcome.lineageRecoveries, 1);
  EXPECT_GE(outcome.stages.at("prep").retries, 1);
  for (const auto& stage : {"prep", "left", "right", "merge"}) {
    EXPECT_EQ(outcome.stages.at(stage).state, workflow::StageState::kCompleted)
        << stage;
    EXPECT_EQ(outcome.stages.at(stage).cluster, "west") << stage;
  }

  // The final output is still byte-correct, served by the survivor.
  EXPECT_EQ(scenario.fetchIntermediate("wfx", "merge"), expectedMergeBytes());
}

TEST(WorkflowEngineTest, FleetHealthGateDefersDispatchUntilRecovery) {
  WorkflowScenario scenario;
  // Rebuild the engine with the health gate wired to a fleet that reads
  // degraded for the first 5 simulated seconds (e.g. max collector
  // healthScore over the candidate clusters), then recovers.
  workflow::WorkflowOptions gated;
  gated.fleetHealth = [&scenario] {
    return scenario.sim.now() < sim::Time::fromNanos(0) + sim::Duration::seconds(5)
               ? 0.2
               : 1.0;
  };
  gated.minFleetHealth = 0.5;
  gated.healthRecheckInterval = sim::Duration::millis(500);
  scenario.engine =
      std::make_unique<workflow::WorkflowEngine>(*scenario.client, gated);

  scenario.run(diamondSpec("wfh"));
  ASSERT_TRUE(scenario.outcome.has_value());
  ASSERT_TRUE(scenario.outcome->ok()) << scenario.outcome->status();
  const auto& outcome = scenario.outcome->value();
  EXPECT_TRUE(outcome.succeeded);

  // The gate held the first dispatch back (one defer line, not one per
  // recheck) and nothing launched until the fleet read healthy again.
  const std::size_t defer = outcome.trace.find("defer dispatch fleet-health=0.20");
  const std::size_t dispatch = outcome.trace.find("dispatch prep");
  ASSERT_NE(defer, std::string::npos) << outcome.trace;
  ASSERT_NE(dispatch, std::string::npos) << outcome.trace;
  EXPECT_LT(defer, dispatch);
  EXPECT_EQ(outcome.trace.find("defer dispatch", defer + 1), std::string::npos)
      << outcome.trace;
  EXPECT_NE(outcome.trace.find("t=5.000000s dispatch prep"), std::string::npos)
      << outcome.trace;
}

TEST(WorkflowEngineTest, ChaosRunIsByteIdenticalPerSeed) {
  WorkflowChaosScenario first(/*chaosSeed=*/4242);
  first.run(diamondSpec("wfx"));
  WorkflowChaosScenario second(/*chaosSeed=*/4242);
  second.run(diamondSpec("wfx"));
  EXPECT_EQ(first.fingerprint(), second.fingerprint());
  EXPECT_NE(first.fingerprint(), "<no outcome>");
}

// Straggler hedging: a stage whose job lands on a limping node would
// stretch the makespan by minutes; with hedging on, the engine
// relaunches the stage after the hedge delay and the faster leg wins
// the race while the straggler loses quietly (no retry burned, no
// double completion).
TEST(WorkflowEngineTest, StragglerStageIsRescuedByHedgeLeg) {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  core::ComputeClusterConfig config;
  config.name = "solo";
  config.nodeCount = 2;
  config.perNode = k8s::Resources{MilliCpu::fromCores(4), ByteSize::fromGiB(8)};
  auto& cc = overlay.addCluster(config);
  int invocations = 0;
  cc.cluster().registerApp("racer", [&invocations](k8s::AppContext&) {
    k8s::AppResult result;
    // The first launch is the straggler (think slow-node gray failure);
    // the hedge's relaunch runs at normal speed.
    result.runtime = invocations++ == 0 ? sim::Duration::minutes(10)
                                        : sim::Duration::seconds(2);
    return result;
  });
  cc.gateway().jobs().mapAppToImage("race", "racer");
  overlay.connect("client-host", "solo", net::LinkParams{sim::Duration::millis(5)});
  overlay.announceCluster("solo");
  core::LidcClient client(*overlay.topology().node("client-host"), "wf-user",
                          workflowClientOptions(), /*seed=*/777);

  workflow::WorkflowOptions engineOptions;
  engineOptions.enableHedging = true;
  engineOptions.hedgeFloor = sim::Duration::seconds(10);
  workflow::WorkflowEngine engine(client, engineOptions);

  workflow::WorkflowSpec spec;
  spec.id = "hedged";
  workflow::StageSpec stage;
  stage.name = "only";
  stage.app = "race";
  stage.cpu = MilliCpu::fromCores(1);
  stage.memory = ByteSize::fromGiB(1);
  spec.addStage(stage);

  std::optional<Result<workflow::WorkflowOutcome>> outcome;
  sim::Time settledAt;
  engine.run(std::move(spec), [&](Result<workflow::WorkflowOutcome> r) {
    outcome = std::move(r);
    settledAt = sim.now();
  });
  sim.run();

  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->ok()) << outcome->status();
  EXPECT_TRUE((*outcome)->succeeded);
  EXPECT_EQ((*outcome)->stages.at("only").state,
            workflow::StageState::kCompleted);
  EXPECT_EQ((*outcome)->stages.at("only").retries, 0);
  EXPECT_EQ(engine.stageHedges(), 1u);
  EXPECT_EQ(engine.counters().stageHedgesWon, 1u);
  EXPECT_EQ(invocations, 2);
  // The workflow settled on the hedge's timescale (~12 s), not the
  // straggler's 10 minutes.
  EXPECT_LE(settledAt.toNanos(),
            (sim::Time::fromNanos(0) + sim::Duration::minutes(1)).toNanos());
}

TEST(WorkflowEngineTest, HedgingOffLetsTheStragglerRun) {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  core::ComputeClusterConfig config;
  config.name = "solo";
  config.nodeCount = 2;
  config.perNode = k8s::Resources{MilliCpu::fromCores(4), ByteSize::fromGiB(8)};
  auto& cc = overlay.addCluster(config);
  cc.cluster().registerApp("slowpoke", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::minutes(2);
    return result;
  });
  cc.gateway().jobs().mapAppToImage("race", "slowpoke");
  overlay.connect("client-host", "solo", net::LinkParams{sim::Duration::millis(5)});
  overlay.announceCluster("solo");
  core::LidcClient client(*overlay.topology().node("client-host"), "wf-user",
                          workflowClientOptions(), /*seed=*/777);
  workflow::WorkflowEngine engine(client);  // hedging off by default

  workflow::WorkflowSpec spec;
  spec.id = "unhedged";
  workflow::StageSpec stage;
  stage.name = "only";
  stage.app = "race";
  stage.cpu = MilliCpu::fromCores(1);
  stage.memory = ByteSize::fromGiB(1);
  spec.addStage(stage);

  std::optional<Result<workflow::WorkflowOutcome>> outcome;
  engine.run(std::move(spec), [&](Result<workflow::WorkflowOutcome> r) {
    outcome = std::move(r);
  });
  sim.run();
  ASSERT_TRUE(outcome.has_value() && outcome->ok());
  EXPECT_TRUE((*outcome)->succeeded);
  EXPECT_EQ(engine.stageHedges(), 0u);
}

}  // namespace
}  // namespace lidc
