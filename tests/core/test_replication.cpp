// Data replication: a freshly joined cluster stages datasets over NDN
// from whichever lake holds them through the replica plane's
// TransferScheduler, then serves compute on them locally.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/overlay.hpp"
#include "replica/scheduler.hpp"

namespace lidc::core {
namespace {

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    overlay_ = std::make_unique<ClusterOverlay>(sim_);
    overlay_->addNode("client-host");
    catalog_ = std::make_unique<genomics::DatasetCatalog>(0.05);

    seeded_ = &addCluster("seeded", 40);
    seeded_->loadGenomicsDatasets(*catalog_);

    fresh_ = &addCluster("fresh", 5);
    // note: fresh_ deliberately has NO datasets loaded; it does get the
    // magic-blast image so it *could* run BLAST if it had the data.
    genomics::installMagicBlast(fresh_->cluster(), fresh_->store(), *catalog_);
    // The fresh node joined after "seeded" was announced; refresh so it
    // learns routes to its peers' lakes.
    overlay_->refreshAnnouncements();

    client_ = std::make_unique<LidcClient>(
        *overlay_->topology().node("client-host"), "user");
    staging_ = std::make_unique<replica::TransferScheduler>(
        fresh_->forwarder(), fresh_->store(), fresh_->name());
  }

  /// Stages `dataset` into the fresh lake; the returned slot holds the
  /// terminal status once the sim has run.
  std::shared_ptr<std::optional<Status>> stage(const ndn::Name& dataset) {
    auto done = std::make_shared<std::optional<Status>>();
    staging_->enqueue(dataset, {},
                      [done](Status s, std::uint64_t) { *done = s; });
    return done;
  }

  ComputeCluster& addCluster(const std::string& name, int linkMs) {
    ComputeClusterConfig config;
    config.name = name;
    auto& cluster = overlay_->addCluster(config);
    overlay_->connect("client-host", name,
                      net::LinkParams{sim::Duration::millis(linkMs)});
    overlay_->announceCluster(name);
    return cluster;
  }

  sim::Simulator sim_;
  std::unique_ptr<ClusterOverlay> overlay_;
  std::unique_ptr<genomics::DatasetCatalog> catalog_;
  ComputeCluster* seeded_ = nullptr;
  ComputeCluster* fresh_ = nullptr;
  std::unique_ptr<LidcClient> client_;
  std::unique_ptr<replica::TransferScheduler> staging_;
};

TEST_F(ReplicationTest, ReplicatesObjectOverNdn) {
  const ndn::Name object("/ndn/k8s/data/human-ref");
  ASSERT_FALSE(fresh_->store().contains(object));

  const auto done = stage(object);
  sim_.run();
  ASSERT_TRUE(done->has_value());
  EXPECT_TRUE((*done)->ok()) << **done;
  EXPECT_TRUE(fresh_->store().contains(object));
  // Byte-identical copies.
  EXPECT_EQ(*fresh_->store().get(object), *seeded_->store().get(object));
  EXPECT_EQ(staging_->counters().staged, 1u);
  EXPECT_GT(staging_->bytesMoved(), 0u);
}

TEST_F(ReplicationTest, AlreadyPresentIsNoop) {
  ASSERT_TRUE(fresh_->store().putText(ndn::Name("/ndn/k8s/data/x"), "v").ok());
  const auto done = stage(ndn::Name("/ndn/k8s/data/x"));
  sim_.run();
  ASSERT_TRUE(done->has_value());
  EXPECT_TRUE((*done)->ok());
  EXPECT_EQ(staging_->counters().staged, 0u);
  EXPECT_EQ(staging_->localHits(), 1u);
}

TEST_F(ReplicationTest, MissingObjectReportsError) {
  const auto done = stage(ndn::Name("/ndn/k8s/data/ghost"));
  sim_.run();
  ASSERT_TRUE(done->has_value());
  EXPECT_FALSE((*done)->ok());
}

TEST_F(ReplicationTest, BatchReplicationReportsOnce) {
  const std::vector<ndn::Name> objects{
      ndn::Name("/ndn/k8s/data/human-ref"),
      ndn::Name("/ndn/k8s/data/SRR2931415"),
      ndn::Name("/ndn/k8s/data/SRR5139395"),
  };
  std::map<std::string, int> callbacks;
  for (const auto& object : objects) {
    staging_->enqueue(object, {}, [&callbacks, object](Status s, std::uint64_t) {
      EXPECT_TRUE(s.ok()) << s;
      ++callbacks[object.toUri()];
    });
  }
  sim_.run();
  ASSERT_EQ(callbacks.size(), 3u);
  for (const auto& [uri, count] : callbacks) EXPECT_EQ(count, 1) << uri;
  EXPECT_EQ(staging_->counters().staged, 3u);
}

TEST_F(ReplicationTest, FailedObjectDoesNotAbortSiblings) {
  // One doomed object in the middle: the other two must still stage.
  const auto ref = stage(ndn::Name("/ndn/k8s/data/human-ref"));
  const auto ghost = stage(ndn::Name("/ndn/k8s/data/ghost"));
  const auto rice = stage(ndn::Name("/ndn/k8s/data/SRR2931415"));
  sim_.run();
  ASSERT_TRUE(ghost->has_value());
  EXPECT_FALSE((*ghost)->ok());
  ASSERT_TRUE(ref->has_value() && rice->has_value());
  EXPECT_TRUE((*ref)->ok() && (*rice)->ok());
  EXPECT_EQ(staging_->counters().staged, 2u);
  EXPECT_EQ(staging_->failures(), 1u);
  EXPECT_TRUE(fresh_->store().contains(ndn::Name("/ndn/k8s/data/human-ref")));
  EXPECT_TRUE(fresh_->store().contains(ndn::Name("/ndn/k8s/data/SRR2931415")));
}

TEST_F(ReplicationTest, FreshClusterRunsBlastAfterStaging) {
  // Stage the reference + rice sample into the fresh (nearest) cluster.
  const auto ref = stage(ndn::Name("/ndn/k8s/data/human-ref"));
  const auto rice = stage(ndn::Name("/ndn/k8s/data/SRR2931415"));
  sim_.run();
  ASSERT_TRUE(ref->has_value() && rice->has_value());
  ASSERT_TRUE((*ref)->ok() && (*rice)->ok());

  ComputeRequest request;
  request.app = "BLAST";
  request.cpu = MilliCpu::fromCores(2);
  request.memory = ByteSize::fromGiB(4);
  request.params["srr_id"] = "SRR2931415";

  std::optional<JobOutcome> outcome;
  client_->runToCompletion(request, [&](Result<JobOutcome> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    outcome = *r;
  });
  sim_.run();
  ASSERT_TRUE(outcome.has_value());
  // Nearest cluster (fresh, 5 ms) now serves the job with its staged data.
  EXPECT_EQ(outcome->finalStatus.cluster, "fresh");
  EXPECT_EQ(outcome->finalStatus.state, k8s::JobState::kCompleted);
}

}  // namespace
}  // namespace lidc::core
