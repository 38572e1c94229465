// Status-namespace GC: terminal jobs are evicted after the retention
// window — on contact (touch eviction) and by the reaper sweep while it
// is armed — so a long-lived gateway's status table and JobManager stop
// growing without bound. Also covers the migration-plane status alias:
// polls under a dead cluster's old name are answered with the local
// successor's status until the alias itself ages out.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "core/client.hpp"
#include "core/overlay.hpp"
#include "core/semantic_name.hpp"

namespace lidc::core {
namespace {

struct GcRig {
  explicit GcRig(sim::Duration retention, bool enableGc = true) {
    overlay = std::make_unique<ClusterOverlay>(sim);
    overlay->addNode("client-host");
    ComputeClusterConfig config;
    config.name = "east";
    config.gateway.enableStatusGc = enableGc;
    config.gateway.statusRetention = retention;
    cc = &overlay->addCluster(config);
    cc->cluster().registerApp("sleeper", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(5);
      return result;
    });
    cc->cluster().registerApp("long-sleeper", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::minutes(20);
      return result;
    });
    cc->gateway().jobs().mapAppToImage("sleep", "sleeper");
    cc->gateway().jobs().mapAppToImage("long", "long-sleeper");
    overlay->connect("client-host", "east",
                     net::LinkParams{sim::Duration::millis(5)});
    overlay->announceCluster("east");
    client = std::make_unique<LidcClient>(
        *overlay->topology().node("client-host"), "user");
  }

  /// Submits a sleeper and runs until the world is idle (job terminal).
  SubmitResult submitAndFinish() {
    ComputeRequest request;
    request.app = "sleep";
    request.cpu = MilliCpu::fromCores(1);
    request.memory = ByteSize::fromGiB(1);
    std::optional<Result<SubmitResult>> ack;
    client->submit(request,
                   [&ack](Result<SubmitResult> r) { ack = std::move(r); });
    sim.run();
    EXPECT_TRUE(ack.has_value() && ack->ok());
    return ack->ok() ? **ack : SubmitResult{};
  }

  /// Submits a 20-minute sleeper and runs just until the ack is in:
  /// the job is still Pending.
  SubmitResult submitLong() {
    ComputeRequest request;
    request.app = "long";
    request.cpu = MilliCpu::fromCores(1);
    request.memory = ByteSize::fromGiB(1);
    std::optional<Result<SubmitResult>> ack;
    client->submit(request,
                   [&ack](Result<SubmitResult> r) { ack = std::move(r); });
    while (!ack.has_value() && sim.runSteps(1) > 0) {
    }
    EXPECT_TRUE(ack.has_value() && ack->ok());
    return ack.has_value() && ack->ok() ? **ack : SubmitResult{};
  }

  /// The k8s Job behind a gateway job id, or nullptr once deleted.
  const k8s::Job* k8sJob(const std::string& jobId) {
    return cc->cluster().job(cc->gateway().jobs().namespaceName(), jobId);
  }

  /// One status poll at the current sim time.
  Result<JobStatusSnapshot> poll(const ndn::Name& statusName) {
    std::optional<Result<JobStatusSnapshot>> out;
    client->queryStatus(statusName, [&out](Result<JobStatusSnapshot> r) {
      out = std::move(r);
    });
    sim.run();
    EXPECT_TRUE(out.has_value());
    return out.has_value() ? *out
                           : Result<JobStatusSnapshot>(
                                 Status::Internal("poll never settled"));
  }

  /// One status poll that runs the world only until it is answered.
  Result<JobStatusSnapshot> pollNow(const ndn::Name& statusName) {
    std::optional<Result<JobStatusSnapshot>> out;
    client->queryStatus(statusName, [&out](Result<JobStatusSnapshot> r) {
      out = std::move(r);
    });
    while (!out.has_value() && sim.runSteps(1) > 0) {
    }
    return out.has_value() ? *out
                           : Result<JobStatusSnapshot>(
                                 Status::Internal("poll never settled"));
  }

  void advance(sim::Duration by) {
    sim.runUntil(sim.now() + by);
  }

  sim::Simulator sim;
  std::unique_ptr<ClusterOverlay> overlay;
  ComputeCluster* cc = nullptr;
  std::unique_ptr<LidcClient> client;
};

TEST(StatusGcTest, TerminalJobsServeWithinRetentionThenEvictOnTouch) {
  GcRig rig(sim::Duration::minutes(2));
  const SubmitResult ack = rig.submitAndFinish();
  const ndn::Name statusName(ack.statusName);

  // Within retention the terminal status is still served.
  auto fresh = rig.poll(statusName);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(fresh->state, k8s::JobState::kCompleted);
  EXPECT_EQ(rig.cc->gateway().counters().statusEvicted, 0u);

  // Past retention, the first contact evicts: the poll answers NotFound
  // and the job table entry is gone.
  rig.advance(sim::Duration::minutes(3));
  auto stale = rig.poll(statusName);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(rig.cc->gateway().counters().statusEvicted, 1u);
  EXPECT_FALSE(rig.cc->gateway().jobs().status(ack.jobId).ok());

  // Idempotent: later polls are plain misses, not double evictions.
  auto again = rig.poll(statusName);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(rig.cc->gateway().counters().statusEvicted, 1u);
}

TEST(StatusGcTest, ReaperSweepEvictsExpiredTerminalsWithoutContact) {
  GcRig rig(sim::Duration::minutes(2));
  const SubmitResult first = rig.submitAndFinish();

  // Age the first job past retention, then launch a second job: its
  // launch re-arms the reaper, whose sweep collects the expired
  // terminal entry with no poller ever touching it.
  rig.advance(sim::Duration::minutes(3));
  const SubmitResult second = rig.submitAndFinish();
  EXPECT_GE(rig.cc->gateway().counters().statusEvicted, 1u);
  EXPECT_FALSE(rig.cc->gateway().jobs().status(first.jobId).ok());
  // The younger terminal entry survived the sweep.
  auto survivor = rig.poll(ndn::Name(second.statusName));
  ASSERT_TRUE(survivor.ok()) << survivor.status();
  EXPECT_EQ(survivor->state, k8s::JobState::kCompleted);
}

TEST(StatusGcTest, GcDeletesTheFinishedK8sJobWithItsStatus) {
  GcRig rig(sim::Duration::minutes(2));
  const SubmitResult ack = rig.submitAndFinish();
  ASSERT_NE(rig.k8sJob(ack.jobId), nullptr);
  EXPECT_EQ(rig.k8sJob(ack.jobId)->status().state, k8s::JobState::kCompleted);
  // The finished job's resources are already free: deleting it changes
  // no accounting.
  const k8s::Resources freeBefore = rig.cc->cluster().totalFree();
  EXPECT_EQ(rig.cc->cluster().totalAllocated(), k8s::Resources{});

  rig.advance(sim::Duration::minutes(3));
  EXPECT_FALSE(rig.poll(ndn::Name(ack.statusName)).ok());
  EXPECT_EQ(rig.k8sJob(ack.jobId), nullptr);
  EXPECT_EQ(rig.cc->cluster().pod(rig.cc->gateway().jobs().namespaceName(),
                                  ack.jobId + "-pod-0"),
            nullptr);
  EXPECT_EQ(rig.cc->cluster().totalFree(), freeBefore);
  EXPECT_EQ(rig.cc->cluster().totalAllocated(), k8s::Resources{});
}

TEST(StatusGcTest, ForgettingAPendingOrRunningJobDeletesNothing) {
  // The orphan reaper forgets jobs stuck Pending; their k8s Jobs stay.
  GcRig rig(sim::Duration::minutes(2));
  const SubmitResult pending = rig.submitLong();
  ASSERT_EQ(rig.k8sJob(pending.jobId)->status().state, k8s::JobState::kPending);
  rig.cc->gateway().jobs().forget(pending.jobId);
  ASSERT_NE(rig.k8sJob(pending.jobId), nullptr);
  EXPECT_FALSE(rig.cc->gateway().jobs().status(pending.jobId).ok());

  const SubmitResult running = rig.submitLong();
  rig.advance(sim::Duration::seconds(5));
  ASSERT_EQ(rig.k8sJob(running.jobId)->status().state, k8s::JobState::kRunning);
  rig.cc->gateway().jobs().forget(running.jobId);
  ASSERT_NE(rig.k8sJob(running.jobId), nullptr);
  EXPECT_EQ(rig.k8sJob(running.jobId)->status().state, k8s::JobState::kRunning);

  // Both keep running to completion in the cluster.
  rig.sim.run();
  EXPECT_EQ(rig.k8sJob(pending.jobId)->status().state, k8s::JobState::kCompleted);
  EXPECT_EQ(rig.k8sJob(running.jobId)->status().state, k8s::JobState::kCompleted);
  EXPECT_EQ(rig.cc->cluster().totalAllocated(), k8s::Resources{});
}

TEST(StatusGcTest, AliasOfARunningSuccessorKeepsAnsweringPastRetention) {
  GcRig rig(sim::Duration::minutes(2));
  const SubmitResult successor = rig.submitLong();
  rig.cc->gateway().addStatusAlias("west", "west-5", successor.jobId);
  rig.overlay->topology().installRoutesTo(makeStatusName("west", "west-5"),
                                          "east");
  // Several reaper sweeps and retention windows pass while it runs.
  rig.advance(sim::Duration::minutes(10));
  auto aliased = rig.pollNow(makeStatusName("west", "west-5"));
  ASSERT_TRUE(aliased.ok()) << aliased.status();
  EXPECT_EQ(aliased->state, k8s::JobState::kRunning);
  ASSERT_NE(rig.k8sJob(successor.jobId), nullptr);
}

TEST(StatusGcTest, DisabledGcRetainsTerminalStatusIndefinitely) {
  GcRig rig(sim::Duration::minutes(2), /*enableGc=*/false);
  const SubmitResult ack = rig.submitAndFinish();
  rig.advance(sim::Duration::hours(2));
  auto old = rig.poll(ndn::Name(ack.statusName));
  ASSERT_TRUE(old.ok()) << old.status();
  EXPECT_EQ(old->state, k8s::JobState::kCompleted);
  EXPECT_EQ(rig.cc->gateway().counters().statusEvicted, 0u);
}

TEST(StatusGcTest, StatusAliasAnswersOldNameAndAgesOut) {
  GcRig rig(sim::Duration::minutes(2));
  const SubmitResult ack = rig.submitAndFinish();

  // A migration landed: the job that was "west-3" on the dead cluster
  // lives on here. The gateway registers the exact old-name route on
  // its own forwarder; the overlay-wide route is the coordinator's
  // routeInstaller's job, so steer the client-side route here too.
  rig.cc->gateway().addStatusAlias("west", "west-3", ack.jobId);
  rig.overlay->topology().installRoutesTo(makeStatusName("west", "west-3"),
                                          "east");

  auto aliased = rig.poll(makeStatusName("west", "west-3"));
  ASSERT_TRUE(aliased.ok()) << aliased.status();
  EXPECT_EQ(aliased->state, k8s::JobState::kCompleted);
  EXPECT_EQ(aliased->cluster, "east");
  EXPECT_EQ(rig.cc->gateway().counters().aliasServed, 1u);

  // Unknown foreign names still nack — the alias table is exact.
  auto unknown = rig.poll(makeStatusName("west", "west-9"));
  EXPECT_FALSE(unknown.ok());

  // Aliases age out with the same retention as terminal status. A new
  // launch arms the reaper, whose sweep drops the expired alias.
  rig.advance(sim::Duration::minutes(3));
  (void)rig.submitAndFinish();
  auto expired = rig.poll(makeStatusName("west", "west-3"));
  EXPECT_FALSE(expired.ok());
}

}  // namespace
}  // namespace lidc::core
