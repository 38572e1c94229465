// The named-snapshot protocol (telemetry/snapshot.hpp) through both of
// its consumers: a monitoring-plane content group scraped by a
// TelemetryCollector, and a ReplicaCatalog scraped by a
// ReplicaDirectory. Every case runs against both.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "net/topology.hpp"
#include "replica/catalog.hpp"
#include "replica/directory.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/snapshot.hpp"

namespace lidc::telemetry {
namespace {

enum class Plane { kTelemetry, kReplica };

std::string planeName(Plane plane) {
  return plane == Plane::kTelemetry ? "Telemetry" : "Replica";
}
void PrintTo(Plane plane, std::ostream* os) { *os << planeName(plane); }

/// One publisher node ("east") and one scraper host, directly linked.
class SnapshotProtocolTest : public ::testing::TestWithParam<Plane> {
 protected:
  SnapshotProtocolTest() : topology_(sim_) {
    ndn::Forwarder& east = topology_.addNode("east");
    ndn::Forwarder& host = topology_.addNode("host");
    topology_.connect("east", "host", net::LinkParams{sim::Duration::millis(5)});
    if (GetParam() == Plane::kTelemetry) {
      publisher_ = std::make_unique<TelemetryPublisher>(east, registry_, "east");
      publisher_->addContentGroup(
          "alerts", [this] { return "revision " + std::to_string(revision_); },
          [this] { return revision_; });
      TelemetryCollectorOptions options;
      options.group = "alerts";
      collector_ = std::make_unique<TelemetryCollector>(host, options);
      collector_->watchCluster("east");
      cluster_ = kTelemetryPrefix;
      cluster_.append("east");
      stream_ = cluster_;
      stream_.append("alerts");
      manifest_ = "_latest";
    } else {
      catalog_ = std::make_unique<replica::ReplicaCatalog>(east, "east");
      directory_ = std::make_unique<replica::ReplicaDirectory>(host);
      directory_->watchCluster("east");
      cluster_ = replica::kReplicaPrefix;
      cluster_.append("east");
      stream_ = cluster_;
      manifest_ = replica::kReplicaMapComponent;
    }
    topology_.installRoutesTo(cluster_, "east");
    probe_ = std::make_shared<ndn::AppFace>("app://probe", sim_, /*nonceSeed=*/11);
    host.addFace(probe_);
  }

  /// Moves the published state on to a new revision.
  void bump() {
    ++revision_;
    if (catalog_) {
      catalog_->markReady(ndn::Name("/ndn/k8s/data/d" + std::to_string(revision_)),
                          revision_);
    }
  }

  /// Lets cached manifests expire and the snapshot interval elapse.
  void age() { sim_.runUntil(sim_.now() + sim::Duration::seconds(2)); }

  void scrape() {
    if (collector_) {
      collector_->scrapeOnce();
    } else {
      directory_->scrapeOnce();
    }
    sim_.run();
  }

  [[nodiscard]] const SnapshotView* view() const {
    if (collector_) return collector_->view("east");
    return directory_->view("east");
  }

  /// The scraped payload as the consumer holds it.
  [[nodiscard]] std::string payload() const {
    if (collector_) return collector_->view("east")->rawText;
    std::string out;
    for (const auto& [uri, entry] : directory_->view("east")->entries) {
      out += uri + "=" + std::to_string(entry.bytes) + "\n";
    }
    return out;
  }

  [[nodiscard]] const ScrapeCounters& counters() const {
    return collector_ ? collector_->counters() : directory_->counters();
  }
  [[nodiscard]] std::uint64_t rejected() const {
    return publisher_ ? publisher_->interestsRejected()
                      : catalog_->interestsRejected();
  }
  [[nodiscard]] std::uint64_t served() const {
    return publisher_ ? publisher_->interestsServed()
                      : catalog_->interestsServed();
  }

  struct Reply {
    bool data = false;
    bool nack = false;
    std::string content;
  };

  Reply fetch(const ndn::Name& name, bool mustBeFresh) {
    Reply reply;
    ndn::Interest interest(name);
    interest.setMustBeFresh(mustBeFresh).setLifetime(sim::Duration::seconds(1));
    probe_->expressInterest(
        std::move(interest),
        [&reply](const ndn::Interest&, const ndn::Data& data) {
          reply.data = true;
          reply.content = data.contentAsString();
        },
        [&reply](const ndn::Interest&, const ndn::Nack&) { reply.nack = true; },
        [](const ndn::Interest&) {});
    sim_.run();
    return reply;
  }

  Reply fetchManifest() {
    ndn::Name name = stream_;
    name.append(manifest_);
    return fetch(name, /*mustBeFresh=*/true);
  }

  Reply fetchSnapshot(std::uint64_t seq) {
    ndn::Name name = stream_;
    name.appendNumber(seq);
    return fetch(name, /*mustBeFresh=*/false);
  }

  /// Every Data crossing the link arrives bit-flipped, and the scraper
  /// host's forwarder stops verifying, so the bad copy reaches the
  /// scraper's own verify().
  void corruptLink() {
    topology_.node("host")->setDataVerification(false);
    net::Link* link = topology_.linkBetween("east", "host");
    net::LinkParams params = link->params();
    params.corruptRate = 1.0;
    link->setParams(params);
  }

  sim::Simulator sim_;
  net::Topology topology_;
  MetricsRegistry registry_;
  std::uint64_t revision_ = 0;
  std::unique_ptr<TelemetryPublisher> publisher_;
  std::unique_ptr<TelemetryCollector> collector_;
  std::unique_ptr<replica::ReplicaCatalog> catalog_;
  std::unique_ptr<replica::ReplicaDirectory> directory_;
  ndn::Name cluster_;  // <root>/east, the registered prefix
  ndn::Name stream_;   // cluster_ plus the stream component, if any
  std::string manifest_;
  std::shared_ptr<ndn::AppFace> probe_;
};

TEST_P(SnapshotProtocolTest, NinthRevisionRetiresTheFirstSnapshot) {
  EXPECT_EQ(fetchManifest().content.rfind("seq=1;", 0), 0u);
  for (int seq = 2; seq <= 8; ++seq) {
    bump();
    age();
    EXPECT_EQ(fetchManifest().content.rfind("seq=" + std::to_string(seq) + ";", 0),
              0u);
  }
  // Eight retained: seq 1 is still answerable.
  EXPECT_TRUE(fetchSnapshot(1).data);

  bump();
  age();
  EXPECT_EQ(fetchManifest().content.rfind("seq=9;", 0), 0u);
  // Drop the cached copies of seq 1 on the path: only the publisher
  // answers now.
  topology_.node("host")->cs().clear();
  topology_.node("east")->cs().clear();
  const std::uint64_t rejectedBefore = rejected();
  EXPECT_TRUE(fetchSnapshot(1).nack);
  EXPECT_EQ(rejected(), rejectedBefore + 1);
  EXPECT_TRUE(fetchSnapshot(2).data);
  EXPECT_EQ(rejected(), rejectedBefore + 1);
}

TEST_P(SnapshotProtocolTest, ManifestFailingVerifyLeavesViewUnchanged) {
  scrape();
  ASSERT_EQ(counters().scrapesSucceeded, 1u);
  const SnapshotView before = *view();
  const std::string payloadBefore = payload();

  bump();
  age();
  corruptLink();
  scrape();

  EXPECT_EQ(counters().signatureFailures, 1u);
  EXPECT_EQ(counters().scrapesFailed, 1u);
  EXPECT_EQ(counters().snapshotsFetched, 1u);
  EXPECT_EQ(view()->seq, before.seq);
  EXPECT_EQ(view()->lastUpdated, before.lastUpdated);
  EXPECT_EQ(payload(), payloadBefore);
}

TEST_P(SnapshotProtocolTest, SnapshotFailingVerifyLeavesViewUnchanged) {
  scrape();
  ASSERT_EQ(counters().scrapesSucceeded, 1u);
  const SnapshotView before = *view();
  const std::string payloadBefore = payload();

  bump();
  age();
  // A fresh, valid manifest for seq 2 now sits in the host's Content
  // Store, so only the snapshot fetch crosses the corrupting link.
  ASSERT_EQ(fetchManifest().content.rfind("seq=2;", 0), 0u);
  corruptLink();
  scrape();

  EXPECT_EQ(counters().signatureFailures, 1u);
  EXPECT_EQ(counters().scrapesFailed, 1u);
  EXPECT_EQ(counters().snapshotsFetched, 1u);
  EXPECT_EQ(view()->seq, before.seq);
  EXPECT_EQ(view()->lastUpdated, before.lastUpdated);
  EXPECT_EQ(payload(), payloadBefore);
}

TEST_P(SnapshotProtocolTest, MalformedNamesAreNackedAndCounted) {
  // Wrong depth: one component past the selector.
  ndn::Name tooDeep = stream_;
  tooDeep.append(manifest_).append("extra");
  EXPECT_TRUE(fetch(tooDeep, /*mustBeFresh=*/true).nack);

  // Unknown stream under the cluster prefix.
  ndn::Name unknown = cluster_;
  unknown.append("no-such-group").append(manifest_);
  EXPECT_TRUE(fetch(unknown, /*mustBeFresh=*/true).nack);

  // Non-numeric seq.
  ndn::Name junk = stream_;
  junk.append("bogus");
  EXPECT_TRUE(fetch(junk, /*mustBeFresh=*/false).nack);

  EXPECT_EQ(rejected(), 3u);
  EXPECT_EQ(served(), 0u);
}

TEST_P(SnapshotProtocolTest, ScraperDestroyedMidRunLeavesNoTimerBehind) {
  SnapshotScraper* scraper = collector_ ? static_cast<SnapshotScraper*>(collector_.get())
                                        : directory_.get();
  scraper->start();
  // One tick in: the next is armed and this one's Interests are still
  // crossing the 5 ms link.
  sim_.runUntil(sim::Time() + sim::Duration::millis(1));
  EXPECT_EQ(counters().scrapesStarted, 1u);
  EXPECT_EQ(counters().scrapesSucceeded, 0u);
  collector_.reset();
  directory_.reset();

  // Neither the tick nor a late reply may reach the destroyed scraper,
  // and nothing re-arms: the queue drains.
  sim_.runUntil(sim_.now() + sim::Duration::seconds(10));
  sim_.run();
  EXPECT_TRUE(sim_.empty());
}

TEST_P(SnapshotProtocolTest, PublisherDestroyedMidRunLeavesNoHandlerBehind) {
  // A manifest Interest is crossing the 5 ms link when the publisher
  // goes; the forwarder keeps its face, which must not call back into
  // the destroyed publisher. The Interest goes unanswered.
  ndn::Name name = stream_;
  name.append(manifest_);
  ndn::Interest interest(name);
  interest.setMustBeFresh(true).setLifetime(sim::Duration::seconds(1));
  bool answered = false;
  bool timedOut = false;
  probe_->expressInterest(
      std::move(interest),
      [&answered](const ndn::Interest&, const ndn::Data&) { answered = true; },
      [&answered](const ndn::Interest&, const ndn::Nack&) { answered = true; },
      [&timedOut](const ndn::Interest&) { timedOut = true; });
  sim_.runUntil(sim::Time() + sim::Duration::millis(1));
  publisher_.reset();
  catalog_.reset();

  sim_.run();
  EXPECT_FALSE(answered);
  EXPECT_TRUE(timedOut);
  EXPECT_TRUE(sim_.empty());
}

INSTANTIATE_TEST_SUITE_P(Planes, SnapshotProtocolTest,
                         ::testing::Values(Plane::kTelemetry, Plane::kReplica),
                         [](const ::testing::TestParamInfo<Plane>& info) {
                           return planeName(info.param);
                         });

}  // namespace
}  // namespace lidc::telemetry
