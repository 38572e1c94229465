// Node failure semantics: eviction, job retry on surviving nodes, and
// recovery.
#include <gtest/gtest.h>

#include "k8s/cluster.hpp"

namespace lidc::k8s {
namespace {

class NodeFailureTest : public ::testing::Test {
 protected:
  NodeFailureTest() : cluster_("test", sim_) {
    cluster_.addNode("n0",
                     Resources{MilliCpu::fromCores(4), ByteSize::fromGiB(8)});
    cluster_.registerApp("sleeper", [this](AppContext&) {
      ++runs_;
      AppResult result;
      result.runtime = sim::Duration::seconds(60);
      return result;
    });
  }

  JobSpec sleepJob() {
    JobSpec spec;
    spec.app = "sleeper";
    spec.requests = Resources{MilliCpu::fromCores(1), ByteSize::fromGiB(1)};
    return spec;
  }

  sim::Simulator sim_;
  Cluster cluster_;
  int runs_ = 0;
};

TEST_F(NodeFailureTest, RunningJobFailsWhenNodeDies) {
  auto job = cluster_.createJob("default", "j", sleepJob());
  ASSERT_TRUE(job.ok());
  sim_.runUntil(sim_.now() + sim::Duration::seconds(5));
  ASSERT_EQ((*job)->status().state, JobState::kRunning);

  cluster_.failNode("n0");
  EXPECT_EQ((*job)->status().state, JobState::kFailed);
  EXPECT_NE((*job)->status().message.find("node n0 failed"), std::string::npos);
  // Resources released despite the violent death.
  EXPECT_EQ(cluster_.totalAllocated().cpu, MilliCpu());
  // The stale completion event must not resurrect the job.
  sim_.run();
  EXPECT_EQ((*job)->status().state, JobState::kFailed);
  EXPECT_EQ(runs_, 1);
}

TEST_F(NodeFailureTest, JobRetriesOnSurvivingNode) {
  cluster_.addNode("n1", Resources{MilliCpu::fromCores(4), ByteSize::fromGiB(8)});
  JobSpec spec = sleepJob();
  spec.backoffLimit = 1;
  auto job = cluster_.createJob("default", "j", spec);
  ASSERT_TRUE(job.ok());
  sim_.runUntil(sim_.now() + sim::Duration::seconds(5));
  ASSERT_EQ((*job)->status().state, JobState::kRunning);
  const std::string firstNode =
      cluster_.pod("default", (*job)->podName())->nodeName();

  cluster_.failNode(firstNode);
  // The retry pod starts on the surviving node and completes.
  sim_.run();
  EXPECT_EQ((*job)->status().state, JobState::kCompleted);
  EXPECT_EQ((*job)->status().attempts, 2);
  EXPECT_EQ(runs_, 2);
}

TEST_F(NodeFailureTest, PendingPodEvictedAndRequeued) {
  // A plain pod that has not started yet when the node dies.
  PodSpec podSpec;
  podSpec.image = "sleeper";
  podSpec.requests = Resources{MilliCpu::fromCores(1), ByteSize::fromGiB(1)};
  auto pod = cluster_.createPod("default", "p", podSpec);
  ASSERT_TRUE(pod.ok());
  ASSERT_EQ((*pod)->nodeName(), "n0");

  cluster_.failNode("n0");
  EXPECT_EQ((*pod)->phase(), PodPhase::kPending);
  EXPECT_TRUE((*pod)->nodeName().empty());
  EXPECT_EQ(cluster_.pendingUnschedulable(), 1u);

  // Node recovery reschedules it.
  cluster_.setNodeReady("n0", true);
  EXPECT_EQ(cluster_.pendingUnschedulable(), 0u);
  EXPECT_EQ((*pod)->nodeName(), "n0");
}

TEST_F(NodeFailureTest, JobPodEvictedDuringStartupDoesNotLeakRequests) {
  // The node dies inside the pod's 800 ms startup. The startup timer
  // armed for that binding must not run the evicted, unbound pod;
  // otherwise the finished pod is re-bound on recovery and its requests
  // stay allocated forever.
  JobSpec spec = sleepJob();
  spec.requests = Resources{MilliCpu::fromCores(2), ByteSize::fromGiB(2)};
  auto job = cluster_.createJob("default", "j", spec);
  ASSERT_TRUE(job.ok());
  sim_.runUntil(sim::Time() + sim::Duration::millis(300));
  cluster_.failNode("n0");
  sim_.runUntil(sim::Time() + sim::Duration::seconds(10));
  EXPECT_EQ(runs_, 0);
  EXPECT_EQ((*job)->status().state, JobState::kPending);

  cluster_.setNodeReady("n0", true);
  sim_.run();
  EXPECT_EQ((*job)->status().state, JobState::kCompleted);
  EXPECT_EQ(runs_, 1);
  EXPECT_EQ(cluster_.totalFree().cpu, MilliCpu::fromCores(4));
  EXPECT_EQ(cluster_.totalFree().memory, ByteSize::fromGiB(8));
}

TEST_F(NodeFailureTest, FailUnknownNodeIsNoop) {
  cluster_.failNode("ghost");  // must not crash
  EXPECT_EQ(cluster_.nodeCount(), 1u);
}

}  // namespace
}  // namespace lidc::k8s
