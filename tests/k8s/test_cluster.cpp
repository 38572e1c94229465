#include "k8s/cluster.hpp"

#include <gtest/gtest.h>

namespace lidc::k8s {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : cluster_("test", sim_) {
    cluster_.addNode("node0",
                     Resources{MilliCpu::fromCores(8), ByteSize::fromGiB(16)});
  }

  PodSpec smallPod() {
    PodSpec spec;
    spec.image = "noop";
    spec.requests = Resources{MilliCpu::fromCores(1), ByteSize::fromGiB(1)};
    return spec;
  }

  /// Registers a trivial app that succeeds after `seconds`.
  void registerNoop(double seconds = 1.0) {
    cluster_.registerApp("noop", [seconds](AppContext&) {
      AppResult result;
      result.runtime = sim::Duration::seconds(seconds);
      result.message = "done";
      return result;
    });
  }

  sim::Simulator sim_;
  Cluster cluster_;
};

TEST_F(ClusterTest, PodSchedulesAndRuns) {
  auto pod = cluster_.createPod("default", "p1", smallPod());
  ASSERT_TRUE(pod.ok());
  EXPECT_EQ((*pod)->phase(), PodPhase::kPending);
  EXPECT_EQ((*pod)->nodeName(), "node0");
  EXPECT_FALSE((*pod)->podIp().empty());
  sim_.run();
  EXPECT_EQ((*pod)->phase(), PodPhase::kRunning);
}

TEST_F(ClusterTest, DuplicatePodRejected) {
  ASSERT_TRUE(cluster_.createPod("default", "p1", smallPod()).ok());
  auto dup = cluster_.createPod("default", "p1", smallPod());
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(ClusterTest, OversizedPodStaysPendingThenSchedulesWhenFreed) {
  PodSpec big = smallPod();
  big.requests = Resources{MilliCpu::fromCores(6), ByteSize::fromGiB(6)};
  ASSERT_TRUE(cluster_.createPod("default", "big1", big).ok());
  ASSERT_TRUE(cluster_.createPod("default", "big2", big).ok());
  EXPECT_EQ(cluster_.pendingUnschedulable(), 1u);
  EXPECT_TRUE(cluster_.pod("default", "big2")->nodeName().empty());

  // Free capacity: delete the first pod; the second binds.
  ASSERT_TRUE(cluster_.deletePod("default", "big1").ok());
  EXPECT_EQ(cluster_.pendingUnschedulable(), 0u);
  EXPECT_EQ(cluster_.pod("default", "big2")->nodeName(), "node0");
}

TEST_F(ClusterTest, ResourceAccountingAcrossLifecycle) {
  registerNoop(2.0);
  JobSpec spec;
  spec.app = "noop";
  spec.requests = Resources{MilliCpu::fromCores(2), ByteSize::fromGiB(2)};
  ASSERT_TRUE(cluster_.createJob("default", "job1", spec).ok());
  EXPECT_EQ(cluster_.totalAllocated().cpu, MilliCpu::fromCores(2));
  sim_.run();
  // Job finished; resources released.
  EXPECT_EQ(cluster_.totalAllocated().cpu, MilliCpu());
  EXPECT_EQ(cluster_.totalFree().cpu, MilliCpu::fromCores(8));
}

TEST_F(ClusterTest, JobLifecycleToCompleted) {
  registerNoop(5.0);
  JobSpec spec;
  spec.app = "noop";
  spec.requests = Resources{MilliCpu::fromCores(1), ByteSize::fromGiB(1)};
  auto job = cluster_.createJob("default", "job1", spec);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ((*job)->status().state, JobState::kPending);
  sim_.run();
  EXPECT_EQ((*job)->status().state, JobState::kCompleted);
  EXPECT_EQ((*job)->status().message, "done");
  // startup delay (0.8s) + runtime (5s)
  EXPECT_NEAR(sim_.now().toSeconds(), 5.8, 0.01);
  EXPECT_EQ(cluster_.runningJobCount(), 0u);
}

TEST_F(ClusterTest, JobWithUnknownAppRejected) {
  JobSpec spec;
  spec.app = "ghost";
  auto job = cluster_.createJob("default", "j", spec);
  EXPECT_FALSE(job.ok());
  EXPECT_EQ(job.status().code(), StatusCode::kNotFound);
}

TEST_F(ClusterTest, FailingJobRespectsBackoffLimit) {
  int attempts = 0;
  cluster_.registerApp("flaky", [&attempts](AppContext&) {
    AppResult result;
    result.runtime = sim::Duration::seconds(1);
    ++attempts;
    if (attempts < 3) result.status = Status::Internal("boom");
    return result;
  });
  JobSpec spec;
  spec.app = "flaky";
  spec.requests = Resources{MilliCpu::fromCores(1), ByteSize::fromGiB(1)};
  spec.backoffLimit = 2;
  auto job = cluster_.createJob("default", "retry-job", spec);
  ASSERT_TRUE(job.ok());
  sim_.run();
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ((*job)->status().state, JobState::kCompleted);
  EXPECT_EQ((*job)->status().attempts, 3);
}

TEST_F(ClusterTest, FailingJobExhaustsBackoffAndFails) {
  cluster_.registerApp("doomed", [](AppContext&) {
    AppResult result;
    result.runtime = sim::Duration::seconds(1);
    result.status = Status::Internal("always fails");
    return result;
  });
  JobSpec spec;
  spec.app = "doomed";
  spec.requests = Resources{MilliCpu::fromCores(1), ByteSize::fromGiB(1)};
  spec.backoffLimit = 1;
  auto job = cluster_.createJob("default", "doomed-job", spec);
  ASSERT_TRUE(job.ok());
  sim_.run();
  EXPECT_EQ((*job)->status().state, JobState::kFailed);
  EXPECT_NE((*job)->status().message.find("always fails"), std::string::npos);
}

TEST_F(ClusterTest, DeletingAFinishedJobRemovesItAndItsPodsAndNothingElse) {
  int attempts = 0;
  cluster_.registerApp("flaky", [&attempts](AppContext&) {
    AppResult result;
    result.runtime = sim::Duration::seconds(1);
    if (++attempts < 2) result.status = Status::Internal("boom");
    return result;
  });
  registerNoop(30.0);
  JobSpec spec;
  spec.app = "flaky";
  spec.requests = Resources{MilliCpu::fromCores(2), ByteSize::fromGiB(2)};
  spec.backoffLimit = 1;
  ASSERT_TRUE(cluster_.createJob("default", "done-job", spec).ok());
  sim_.runUntil(sim::Time() + sim::Duration::seconds(10));
  ASSERT_EQ(cluster_.job("default", "done-job")->status().state, JobState::kCompleted);
  ASSERT_NE(cluster_.pod("default", "done-job-pod-0"), nullptr);
  ASSERT_NE(cluster_.pod("default", "done-job-pod-1"), nullptr);

  // A neighbour still running keeps its resources through the deletion.
  spec.app = "noop";
  ASSERT_TRUE(cluster_.createJob("default", "busy-job", spec).ok());
  sim_.runUntil(sim_.now() + sim::Duration::seconds(2));
  ASSERT_EQ(cluster_.job("default", "busy-job")->status().state, JobState::kRunning);
  const Resources allocated = cluster_.totalAllocated();
  const Resources free = cluster_.totalFree();
  const std::size_t running = cluster_.runningJobCount();

  ASSERT_TRUE(cluster_.deleteJob("default", "done-job").ok());
  EXPECT_EQ(cluster_.job("default", "done-job"), nullptr);
  EXPECT_EQ(cluster_.pod("default", "done-job-pod-0"), nullptr);
  EXPECT_EQ(cluster_.pod("default", "done-job-pod-1"), nullptr);
  EXPECT_EQ(cluster_.totalAllocated(), allocated);
  EXPECT_EQ(cluster_.totalFree(), free);
  EXPECT_EQ(cluster_.runningJobCount(), running);
  EXPECT_EQ(cluster_.pendingUnschedulable(), 0u);
  EXPECT_EQ(cluster_.deleteJob("default", "done-job").code(), StatusCode::kNotFound);

  sim_.run();
  EXPECT_EQ(cluster_.job("default", "busy-job")->status().state, JobState::kCompleted);
  EXPECT_EQ(cluster_.totalAllocated(), Resources{});
}

TEST_F(ClusterTest, DeleteJobRefusesPendingAndRunningJobs) {
  registerNoop(5.0);
  JobSpec spec;
  spec.app = "noop";
  spec.requests = Resources{MilliCpu::fromCores(1), ByteSize::fromGiB(1)};
  ASSERT_TRUE(cluster_.createJob("default", "live", spec).ok());
  EXPECT_EQ(cluster_.deleteJob("default", "live").code(),
            StatusCode::kFailedPrecondition);  // Pending
  sim_.runUntil(sim::Time() + sim::Duration::seconds(2));
  ASSERT_EQ(cluster_.job("default", "live")->status().state, JobState::kRunning);
  EXPECT_EQ(cluster_.deleteJob("default", "live").code(),
            StatusCode::kFailedPrecondition);  // Running
  ASSERT_NE(cluster_.pod("default", "live-pod-0"), nullptr);
  sim_.run();
  EXPECT_EQ(cluster_.job("default", "live")->status().state, JobState::kCompleted);
  // A Failed job is finished too.
  cluster_.registerApp("doomed", [](AppContext&) {
    AppResult result;
    result.status = Status::Internal("always fails");
    return result;
  });
  spec.app = "doomed";
  ASSERT_TRUE(cluster_.createJob("default", "failed", spec).ok());
  sim_.run();
  ASSERT_EQ(cluster_.job("default", "failed")->status().state, JobState::kFailed);
  EXPECT_TRUE(cluster_.deleteJob("default", "failed").ok());
  EXPECT_TRUE(cluster_.deleteJob("default", "live").ok());
}

TEST_F(ClusterTest, JobWatcherFires) {
  registerNoop();
  std::vector<std::string> finished;
  cluster_.onJobFinished([&](const Job& job) { finished.push_back(job.name()); });
  JobSpec spec;
  spec.app = "noop";
  spec.requests = Resources{MilliCpu::fromCores(1), ByteSize::fromGiB(1)};
  ASSERT_TRUE(cluster_.createJob("default", "watched", spec).ok());
  sim_.run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_EQ(finished[0], "watched");
}

TEST_F(ClusterTest, ServiceGetsDnsAndNodePort) {
  ServiceSpec spec;
  spec.type = ServiceType::kNodePort;
  spec.selector = {{"app", "nfd"}};
  auto svc = cluster_.createService("ndnk8s", "gateway-nfd", spec);
  ASSERT_TRUE(svc.ok());
  EXPECT_EQ((*svc)->dnsName(), "gateway-nfd.ndnk8s.svc.cluster.local");
  EXPECT_GE((*svc)->nodePort(), 30000);
  EXPECT_LE((*svc)->nodePort(), 32767);
  EXPECT_FALSE((*svc)->clusterIp().empty());

  EXPECT_EQ(cluster_.resolveDns("gateway-nfd.ndnk8s.svc.cluster.local"), *svc);
  EXPECT_EQ(cluster_.resolveDns("nope.ndnk8s.svc.cluster.local"), nullptr);
}

TEST_F(ClusterTest, ServiceEndpointsSelectRunningPods) {
  ServiceSpec svcSpec;
  svcSpec.selector = {{"app", "worker"}};
  auto svc = cluster_.createService("default", "worker-svc", svcSpec);
  ASSERT_TRUE(svc.ok());

  PodSpec podSpec = smallPod();
  podSpec.labels = {{"app", "worker"}};
  ASSERT_TRUE(cluster_.createPod("default", "w0", podSpec).ok());
  PodSpec otherSpec = smallPod();
  otherSpec.labels = {{"app", "other"}};
  ASSERT_TRUE(cluster_.createPod("default", "o0", otherSpec).ok());

  // Before startup, no Running pods -> no endpoints.
  EXPECT_TRUE(cluster_.serviceEndpoints(**svc).empty());
  sim_.run();
  auto endpoints = cluster_.serviceEndpoints(**svc);
  ASSERT_EQ(endpoints.size(), 1u);
  EXPECT_EQ(endpoints[0]->name(), "w0");
}

TEST_F(ClusterTest, DeleteServiceRemovesDns) {
  ServiceSpec spec;
  auto svc = cluster_.createService("default", "s", spec);
  ASSERT_TRUE(svc.ok());
  ASSERT_TRUE(cluster_.deleteService("default", "s").ok());
  EXPECT_EQ(cluster_.resolveDns("s.default.svc.cluster.local"), nullptr);
  EXPECT_FALSE(cluster_.deleteService("default", "s").ok());
}

TEST_F(ClusterTest, PvcCreateAndLookup) {
  auto pvc = cluster_.createPvc("data", ByteSize::fromGiB(1));
  ASSERT_TRUE(pvc.ok());
  EXPECT_EQ(cluster_.pvc("data"), *pvc);
  EXPECT_EQ(cluster_.pvc("none"), nullptr);
  EXPECT_FALSE(cluster_.createPvc("data", ByteSize::fromGiB(1)).ok());
}

TEST_F(ClusterTest, NodeNotReadyBlocksScheduling) {
  cluster_.setNodeReady("node0", false);
  auto pod = cluster_.createPod("default", "p", smallPod());
  ASSERT_TRUE(pod.ok());
  EXPECT_EQ(cluster_.pendingUnschedulable(), 1u);
  cluster_.setNodeReady("node0", true);
  EXPECT_EQ(cluster_.pendingUnschedulable(), 0u);
}

TEST_F(ClusterTest, EventsRecorded) {
  registerNoop();
  JobSpec spec;
  spec.app = "noop";
  spec.requests = Resources{MilliCpu::fromCores(1), ByteSize::fromGiB(1)};
  ASSERT_TRUE(cluster_.createJob("default", "j", spec).ok());
  sim_.run();
  bool sawScheduled = false;
  bool sawCompleted = false;
  for (const auto& event : cluster_.events()) {
    if (event.kind == "PodScheduled") sawScheduled = true;
    if (event.kind == "JobCompleted") sawCompleted = true;
  }
  EXPECT_TRUE(sawScheduled);
  EXPECT_TRUE(sawCompleted);
}

}  // namespace
}  // namespace lidc::k8s
