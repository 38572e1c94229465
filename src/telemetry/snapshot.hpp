// The named-snapshot protocol (paper SIV: state published as named
// data on the overlay), shared by the monitoring plane and the replica
// catalog:
//
//   <prefix>[/<stream>]/<manifest>  -> "seq=N;generated=<ns>"
//   <prefix>[/<stream>]/<seq>       -> the stream's payload text
//
// The manifest is short-freshness Data, so a MustBeFresh Interest
// reaches a live publisher once the cached copy ages out. Per-seq
// snapshots are immutable long-freshness Data, so repeat scrapes are
// served from Content Stores along the path. Snapshots are cut on
// demand (idle simulations still drain); `generated` is when the
// current seq was cut. A scraper reuses the previous payload while the
// seq stands still, and a cluster whose last successful scrape is older
// than the freshness window is stale instead of wedging the scraper.
//
// Consumers derive from these classes and keep only their payload.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"

namespace lidc::telemetry {

class SnapshotPublisher {
 public:
  // The AppFace's Interest handler holds `this`.
  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;
  /// Detaches the Interest handler; the forwarder keeps the face, which
  /// then ignores Interests (they time out at the requester).
  ~SnapshotPublisher();

  [[nodiscard]] std::uint64_t snapshotsGenerated() const noexcept {
    return snapshots_generated_;
  }
  [[nodiscard]] std::uint64_t interestsServed() const noexcept { return served_; }
  [[nodiscard]] std::uint64_t interestsRejected() const noexcept {
    return rejected_;
  }

 protected:
  using Content = std::function<std::string()>;
  using Revision = std::function<std::uint64_t()>;

  /// Registers `prefix` toward a new AppFace named `faceUri`. A manifest
  /// Interest cuts a new seq once the newest is `snapshotInterval` old
  /// and, for a revision-gated stream, the revision moved.
  SnapshotPublisher(ndn::Forwarder& forwarder, const ndn::Name& prefix,
                    const std::string& faceUri, std::string manifestComponent,
                    sim::Duration snapshotInterval);

  /// Adds a stream, or re-targets one (keeping its seq and snapshots).
  /// A stream named "" is served directly under the prefix; a null
  /// `revision` cuts a new seq on every due manifest.
  void addStream(const std::string& stream, Content content,
                 Revision revision = nullptr);

 private:
  struct Stream {
    Content content;
    Revision revision;
    std::uint64_t lastRevision = 0;
    std::uint64_t seq = 0;  // 0 = nothing exported yet
    sim::Time generatedAt;
    std::map<std::uint64_t, std::string> snapshots;  // seq -> payload
  };

  void handleInterest(const ndn::Interest& interest);
  void reject(const ndn::Interest& interest);
  void refresh(Stream& stream);
  void replyManifest(const ndn::Interest& interest, Stream& stream);

  sim::Simulator& sim_;
  std::size_t prefix_size_;
  std::string manifest_component_;
  sim::Duration snapshot_interval_;
  std::shared_ptr<ndn::AppFace> face_;
  std::map<std::string, Stream> streams_;
  std::uint64_t snapshots_generated_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t rejected_ = 0;
};

/// A scraper's protocol state for one cluster; consumer views derive
/// from it and add their parsed payload.
struct SnapshotView {
  std::uint64_t seq = 0;
  sim::Time lastUpdated;
  bool everScraped = false;
};

struct ScrapeCounters {
  std::uint64_t scrapesStarted = 0;    // per (cluster, scrapeOnce) pair
  std::uint64_t scrapesSucceeded = 0;
  std::uint64_t scrapesFailed = 0;     // nack / timeout / bad payload
  std::uint64_t manifestReuses = 0;    // seq unchanged, snapshot fetch skipped
  std::uint64_t snapshotsFetched = 0;
  std::uint64_t signatureFailures = 0;
};

struct ScrapeTiming {
  /// Lifetime of scrape Interests (bounds how long a dead cluster can
  /// keep a scrape outstanding).
  sim::Duration interestLifetime = sim::Duration::millis(1000);
  /// A cluster whose last successful scrape is older than this is stale.
  sim::Duration freshnessWindow = sim::Duration::seconds(5);
  /// Period of start()ed background scraping.
  sim::Duration scrapeInterval = sim::Duration::seconds(2);
};

class SnapshotScraper {
 public:
  // Pending Interest callbacks and the scrape tick hold `this`.
  SnapshotScraper(const SnapshotScraper&) = delete;
  SnapshotScraper& operator=(const SnapshotScraper&) = delete;
  /// Cancels the tick and drops in-flight scrapes (their callbacks hold
  /// `this`); the face stays registered and ignores late replies.
  virtual ~SnapshotScraper();

  [[nodiscard]] const std::vector<std::string>& watchedClusters() const noexcept {
    return watched_;
  }

  /// Scrapes every watched cluster once; `done` fires after each cluster
  /// has succeeded or failed. Overlapping calls are independent.
  void scrapeOnce(std::function<void()> done = nullptr);

  /// Periodic scraping on the sim clock. stop() cancels the timer (and
  /// is required before the sim can drain).
  void start();
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// True when the cluster has never been scraped successfully or its
  /// last success is older than the freshness window.
  [[nodiscard]] bool isStale(const std::string& cluster) const;

  [[nodiscard]] const ScrapeCounters& counters() const noexcept {
    return counters_;
  }

 protected:
  /// Scrapes <root>/<cluster>[/<stream>] through a new AppFace.
  SnapshotScraper(ndn::Forwarder& forwarder, const std::string& faceUri,
                  std::uint64_t nonceSeed, ndn::Name root, std::string stream,
                  std::string manifestComponent, ScrapeTiming timing);

  /// Watches `cluster` (once), keeping its protocol state in `view`.
  void watch(const std::string& cluster, SnapshotView& view);

  /// Applies a freshly fetched, verified snapshot to the cluster's view.
  virtual void applySnapshot(const std::string& cluster, std::string payload) = 0;
  /// Runs after every scrape attempt for a cluster settles, success or
  /// failure.
  virtual void scrapeSettled(const std::string& /*cluster*/) {}

 private:
  void scrapeCluster(const std::string& cluster, std::function<void()> done);
  void fetchSnapshot(const std::string& cluster, std::uint64_t seq,
                     std::function<void()> done);
  /// Expresses one scrape Interest; failures count and call `done`.
  void express(ndn::Name name, bool mustBeFresh,
               std::function<void(const ndn::Data&)> onVerified,
               std::function<void()> done);
  void scrapeTick();
  [[nodiscard]] ndn::Name streamPrefix(const std::string& cluster) const;

  sim::Simulator& sim_;
  ndn::Name root_;
  std::string stream_;
  std::string manifest_component_;
  ScrapeTiming timing_;
  std::shared_ptr<ndn::AppFace> face_;
  std::vector<std::string> watched_;
  std::map<std::string, SnapshotView*> views_;
  ScrapeCounters counters_;
  bool running_ = false;
  sim::EventHandle tick_;
};

}  // namespace lidc::telemetry
