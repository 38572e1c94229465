// Replica directory tests: scraping two cluster catalogs into a merged
// view, manifest reuse when nothing changed, staleness aging instead of
// wedging on a blacked-out cluster, periodic scraping, the snapshot
// parser's tolerance of malformed lines, and a repair loop destroyed
// mid-run (its timer).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "replica/directory.hpp"
#include "replica/policy.hpp"
#include "replica/repair.hpp"

namespace lidc::replica {
namespace {

const ndn::Name kDatasetA("/ndn/k8s/data/a");
const ndn::Name kDatasetB("/ndn/k8s/data/b");

/// Catalogs on "east" and "west", a directory on an ops host.
class ReplicaDirectoryTest : public ::testing::Test {
 protected:
  ReplicaDirectoryTest() : topology_(sim_) {
    ndn::Forwarder& east = topology_.addNode("east");
    ndn::Forwarder& west = topology_.addNode("west");
    topology_.addNode("ops");
    topology_.connect("ops", "east", net::LinkParams{sim::Duration::millis(5)});
    topology_.connect("ops", "west", net::LinkParams{sim::Duration::millis(20)});
    eastCatalog_ = std::make_unique<ReplicaCatalog>(east, "east");
    westCatalog_ = std::make_unique<ReplicaCatalog>(west, "west");
    installReplicaRoute("east");
    installReplicaRoute("west");

    directory_ = std::make_unique<ReplicaDirectory>(*topology_.node("ops"));
    directory_->watchCluster("east");
    directory_->watchCluster("west");
  }

  void installReplicaRoute(const std::string& cluster) {
    ndn::Name prefix = kReplicaPrefix;
    prefix.append(cluster);
    topology_.installRoutesTo(prefix, cluster);
  }

  void scrape() {
    directory_->scrapeOnce();
    sim_.run();
  }

  sim::Simulator sim_;
  net::Topology topology_;
  std::unique_ptr<ReplicaCatalog> eastCatalog_;
  std::unique_ptr<ReplicaCatalog> westCatalog_;
  std::unique_ptr<ReplicaDirectory> directory_;
};

TEST_F(ReplicaDirectoryTest, ScrapeMergesViewsAndAnswersHolders) {
  eastCatalog_->markReady(kDatasetA, 100);
  westCatalog_->markReady(kDatasetA, 100);
  westCatalog_->markStaging(kDatasetB);

  scrape();

  EXPECT_EQ(directory_->counters().scrapesSucceeded, 2u);
  EXPECT_EQ(directory_->counters().snapshotsFetched, 2u);
  EXPECT_EQ(directory_->holders(kDatasetA),
            (std::vector<std::string>{"east", "west"}));
  EXPECT_EQ(directory_->replicationFactor(kDatasetA), 2u);
  // Staging replicas are not servable and do not count.
  EXPECT_TRUE(directory_->holders(kDatasetB).empty());
  EXPECT_EQ(directory_->bytesOf(kDatasetA), 100u);
  EXPECT_FALSE(directory_->bytesOf(kDatasetB).has_value());
  EXPECT_EQ(directory_->knownDatasets(),
            (std::vector<std::string>{"/ndn/k8s/data/a", "/ndn/k8s/data/b"}));
}

TEST_F(ReplicaDirectoryTest, UnchangedSeqReusesManifestWithoutSnapshotRefetch) {
  eastCatalog_->markReady(kDatasetA, 100);
  westCatalog_->markReady(kDatasetA, 100);
  scrape();
  ASSERT_EQ(directory_->counters().snapshotsFetched, 2u);

  // Age the cached manifests out, then scrape a quiet plane: the seq is
  // unchanged, so the snapshot fetch is skipped entirely.
  sim_.runUntil(sim_.now() + sim::Duration::seconds(1));
  scrape();
  EXPECT_EQ(directory_->counters().manifestReuses, 2u);
  EXPECT_EQ(directory_->counters().snapshotsFetched, 2u);
  EXPECT_EQ(directory_->counters().scrapesSucceeded, 4u);

  // A mutation on one cluster re-fetches only that cluster's snapshot.
  eastCatalog_->markReady(kDatasetB, 50);
  sim_.runUntil(sim_.now() + sim::Duration::seconds(1));
  scrape();
  EXPECT_EQ(directory_->counters().snapshotsFetched, 3u);
  EXPECT_EQ(directory_->holders(kDatasetB), (std::vector<std::string>{"east"}));
}

TEST_F(ReplicaDirectoryTest, SilentClusterAgesIntoStale) {
  eastCatalog_->markReady(kDatasetA, 100);
  westCatalog_->markReady(kDatasetA, 100);
  scrape();
  EXPECT_FALSE(directory_->isStale("east"));
  EXPECT_EQ(directory_->replicationFactor(kDatasetA), 2u);

  // No scrapes for longer than the freshness window: both views age out
  // and their replicas stop counting toward replication factors.
  sim_.runUntil(sim_.now() + sim::Duration::seconds(6));
  EXPECT_TRUE(directory_->isStale("east"));
  EXPECT_TRUE(directory_->isStale("west"));
  EXPECT_TRUE(directory_->holders(kDatasetA).empty());
  EXPECT_TRUE(directory_->knownDatasets().empty());

  // One fresh scrape revives them.
  scrape();
  EXPECT_FALSE(directory_->isStale("east"));
  EXPECT_EQ(directory_->replicationFactor(kDatasetA), 2u);
}

TEST_F(ReplicaDirectoryTest, UnreachableClusterFailsScrapeOthersProceed) {
  eastCatalog_->markReady(kDatasetA, 100);
  westCatalog_->markReady(kDatasetA, 100);
  scrape();

  // West drops off the overlay; its scrape fails, east's keeps working.
  ndn::Name westPrefix = kReplicaPrefix;
  westPrefix.append("west");
  topology_.uninstallRoutesTo(westPrefix, "west");
  sim_.runUntil(sim_.now() + sim::Duration::seconds(1));
  scrape();
  EXPECT_GE(directory_->counters().scrapesFailed, 1u);
  EXPECT_FALSE(directory_->isStale("east"));

  // After the freshness window only east's replica still counts.
  sim_.runUntil(sim_.now() + sim::Duration::seconds(6));
  scrape();
  EXPECT_TRUE(directory_->isStale("west"));
  EXPECT_EQ(directory_->holders(kDatasetA), (std::vector<std::string>{"east"}));
}

TEST_F(ReplicaDirectoryTest, PeriodicScrapingTracksMutations) {
  eastCatalog_->markReady(kDatasetA, 100);
  directory_->start();
  EXPECT_TRUE(directory_->running());
  sim_.runUntil(sim_.now() + sim::Duration::seconds(3));
  EXPECT_EQ(directory_->holders(kDatasetA), (std::vector<std::string>{"east"}));

  westCatalog_->markReady(kDatasetA, 100);
  sim_.runUntil(sim_.now() + sim::Duration::seconds(3));
  EXPECT_EQ(directory_->holders(kDatasetA),
            (std::vector<std::string>{"east", "west"}));

  directory_->stop();
  sim_.run();  // must drain once the ticker is stopped
  EXPECT_FALSE(directory_->running());
}

TEST_F(ReplicaDirectoryTest, RepairLoopDestroyedMidRunLeavesNoTimerBehind) {
  eastCatalog_->markReady(kDatasetA, 100);
  directory_->start();
  PlacementPolicy policy;
  auto repair = std::make_unique<RepairLoop>(sim_, *directory_, policy);
  repair->start();
  sim_.runUntil(sim_.now() + sim::Duration::seconds(3));
  EXPECT_EQ(repair->passes(), 1u);
  repair.reset();

  // The next pass was armed for t=4 s; it must not fire into the
  // destroyed loop.
  sim_.runUntil(sim_.now() + sim::Duration::seconds(10));
  directory_->stop();
  sim_.run();
  EXPECT_TRUE(sim_.empty());
}

TEST_F(ReplicaDirectoryTest, TelemetryMirrorsCounters) {
  eastCatalog_->markReady(kDatasetA, 100);
  telemetry::MetricsRegistry registry;
  directory_->attachTelemetry(registry);
  scrape();

  const auto metrics = registry.flatten("lidc_replica_directory");
  EXPECT_EQ(metrics.at("lidc_replica_directory_scrapes_total"), 2.0);
  EXPECT_EQ(metrics.at("lidc_replica_directory_snapshots_fetched_total"), 2.0);
  EXPECT_EQ(metrics.at("lidc_replica_directory_stale_clusters"), 0.0);
}

TEST(ParseReplicaMapTest, SkipsMalformedLines) {
  const auto entries = parseReplicaMap(
      "dataset=/ndn/k8s/data/a;bytes=10;version=2;state=ready\n"
      "garbage line with no fields\n"
      "dataset=/ndn/k8s/data/b;bytes=5;version=1;state=wat\n"  // bad state
      "bytes=7;version=1;state=ready\n"                        // no dataset
      "dataset=/ndn/k8s/data/c;bytes=nan;version=1;state=staging\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.at("/ndn/k8s/data/a").bytes, 10u);
  EXPECT_EQ(entries.at("/ndn/k8s/data/a").version, 2u);
  EXPECT_EQ(entries.at("/ndn/k8s/data/a").state, ReplicaState::kReady);
  // Unparseable bytes fall back to 0, but the entry itself survives.
  EXPECT_EQ(entries.at("/ndn/k8s/data/c").bytes, 0u);
  EXPECT_EQ(entries.at("/ndn/k8s/data/c").state, ReplicaState::kStaging);
}

}  // namespace
}  // namespace lidc::replica
