#include "telemetry/snapshot.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace lidc::telemetry {

namespace {
/// Freshness on manifests (scrapers send MustBeFresh).
constexpr sim::Duration kManifestFreshness = sim::Duration::millis(500);
/// Freshness on immutable per-seq snapshots (CS-cacheable).
constexpr sim::Duration kSnapshotFreshness = sim::Duration::hours(1);
/// How many historical snapshots per stream stay answerable.
constexpr std::size_t kRetainedSnapshots = 8;
}  // namespace

SnapshotPublisher::SnapshotPublisher(ndn::Forwarder& forwarder,
                                     const ndn::Name& prefix,
                                     const std::string& faceUri,
                                     std::string manifestComponent,
                                     sim::Duration snapshotInterval)
    : sim_(forwarder.simulator()),
      prefix_size_(prefix.size()),
      manifest_component_(std::move(manifestComponent)),
      snapshot_interval_(snapshotInterval) {
  face_ = std::make_shared<ndn::AppFace>(faceUri, sim_);
  face_->setInterestHandler([this](const ndn::Interest& i) { handleInterest(i); });
  const ndn::FaceId faceId = forwarder.addFace(face_);
  forwarder.registerPrefix(prefix, faceId, /*cost=*/0);
}

SnapshotPublisher::~SnapshotPublisher() { face_->setInterestHandler(nullptr); }

void SnapshotPublisher::addStream(const std::string& stream, Content content,
                                  Revision revision) {
  Stream& s = streams_[stream];
  s.content = std::move(content);
  s.revision = std::move(revision);
}

void SnapshotPublisher::reject(const ndn::Interest& interest) {
  ++rejected_;
  face_->putNack(interest, ndn::NackReason::kNoRoute);
}

void SnapshotPublisher::handleInterest(const ndn::Interest& interest) {
  // <prefix>[/<stream>]/<manifest | seq>; any other depth names no stream.
  const ndn::Name& name = interest.name();
  const std::size_t depth = name.size() - std::min(name.size(), prefix_size_);
  auto stream = streams_.end();
  if (depth == 1) stream = streams_.find("");
  if (depth == 2) stream = streams_.find(name[name.size() - 2].toString());
  if (stream == streams_.end()) {
    reject(interest);
    return;
  }
  const std::string selector = name[name.size() - 1].toString();
  if (selector == manifest_component_) {
    replyManifest(interest, stream->second);
    return;
  }
  // A snapshot: the seq must parse and still be retained.
  const auto& snapshots = stream->second.snapshots;
  const auto seq = strings::parseUint(selector);
  auto it = seq ? snapshots.find(*seq) : snapshots.end();
  if (it == snapshots.end()) {
    reject(interest);
    return;
  }
  ++served_;
  ndn::Data snapshot(interest.name());
  snapshot.setContent(it->second)
      .setFreshnessPeriod(kSnapshotFreshness)
      .sign();
  face_->putData(std::move(snapshot));
}

void SnapshotPublisher::refresh(Stream& stream) {
  const sim::Time now = sim_.now();
  if (stream.seq != 0 && now - stream.generatedAt < snapshot_interval_) return;
  if (stream.revision) {
    // A new seq only when the revision moved, so scrapers keep reusing
    // the manifest while the payload is quiet.
    const std::uint64_t revision = stream.revision();
    if (stream.seq != 0 && revision == stream.lastRevision) return;
    stream.lastRevision = revision;
  }
  ++stream.seq;
  stream.generatedAt = now;
  stream.snapshots[stream.seq] = stream.content();
  ++snapshots_generated_;
  while (stream.snapshots.size() > kRetainedSnapshots) {
    stream.snapshots.erase(stream.snapshots.begin());
  }
}

void SnapshotPublisher::replyManifest(const ndn::Interest& interest,
                                      Stream& stream) {
  refresh(stream);
  ++served_;
  ndn::Data manifest(interest.name());
  manifest
      .setContent("seq=" + std::to_string(stream.seq) + ";generated=" +
                  std::to_string(stream.generatedAt.toNanos()))
      .setFreshnessPeriod(kManifestFreshness)
      .sign();
  face_->putData(std::move(manifest));
}

SnapshotScraper::SnapshotScraper(ndn::Forwarder& forwarder,
                                 const std::string& faceUri,
                                 std::uint64_t nonceSeed, ndn::Name root,
                                 std::string stream,
                                 std::string manifestComponent,
                                 ScrapeTiming timing)
    : sim_(forwarder.simulator()),
      root_(std::move(root)),
      stream_(std::move(stream)),
      manifest_component_(std::move(manifestComponent)),
      timing_(timing) {
  face_ = std::make_shared<ndn::AppFace>(faceUri, sim_, nonceSeed);
  forwarder.addFace(face_);
}

SnapshotScraper::~SnapshotScraper() {
  stop();
  face_->abandonPending();
}

void SnapshotScraper::watch(const std::string& cluster, SnapshotView& view) {
  if (views_.emplace(cluster, &view).second) watched_.push_back(cluster);
}

ndn::Name SnapshotScraper::streamPrefix(const std::string& cluster) const {
  ndn::Name name = root_;
  name.append(cluster);
  if (!stream_.empty()) name.append(stream_);
  return name;
}

void SnapshotScraper::scrapeOnce(std::function<void()> done) {
  if (watched_.empty()) {
    if (done) done();
    return;
  }
  // Track completion across the fan-out; `done` fires after every
  // watched cluster has either succeeded or failed.
  auto remaining = std::make_shared<std::size_t>(watched_.size());
  auto onClusterDone = [remaining, done = std::move(done)]() {
    if (--*remaining == 0 && done) done();
  };
  for (const auto& cluster : watched_) {
    ++counters_.scrapesStarted;
    scrapeCluster(cluster, onClusterDone);
  }
}

void SnapshotScraper::express(ndn::Name name, bool mustBeFresh,
                              std::function<void(const ndn::Data&)> onVerified,
                              std::function<void()> done) {
  ndn::Interest interest(std::move(name));
  if (mustBeFresh) interest.setMustBeFresh(true);
  interest.setLifetime(timing_.interestLifetime);
  face_->expressInterest(
      std::move(interest),
      [this, onVerified = std::move(onVerified), done](const ndn::Interest&,
                                                       const ndn::Data& data) {
        if (!data.verify()) {
          ++counters_.signatureFailures;
          ++counters_.scrapesFailed;
          done();
          return;
        }
        onVerified(data);
      },
      [this, done](const ndn::Interest&, const ndn::Nack&) {
        ++counters_.scrapesFailed;
        done();
      },
      [this, done](const ndn::Interest&) {
        ++counters_.scrapesFailed;
        done();
      });
}

void SnapshotScraper::scrapeCluster(const std::string& cluster,
                                    std::function<void()> done) {
  // Every terminal path runs the settled hook, so a consumer reacts to
  // a failed scrape as soon as it fails.
  auto finish = [this, cluster, done = std::move(done)] {
    scrapeSettled(cluster);
    if (done) done();
  };
  ndn::Name manifest = streamPrefix(cluster);
  manifest.append(manifest_component_);
  express(
      std::move(manifest), /*mustBeFresh=*/true,
      [this, cluster, finish](const ndn::Data& data) {
        std::uint64_t seq = 0;
        // Keep the content alive: splitSkipEmpty yields views into it.
        const std::string content = data.contentAsString();
        for (auto field : strings::splitSkipEmpty(content, ';')) {
          if (strings::startsWith(field, "seq=")) {
            if (auto parsed = strings::parseUint(field.substr(4))) seq = *parsed;
          }
        }
        if (seq == 0) {
          ++counters_.scrapesFailed;
          finish();
          return;
        }
        SnapshotView& view = *views_.at(cluster);
        if (view.everScraped && view.seq == seq) {
          // Manifest says nothing changed; the previous payload stands.
          ++counters_.manifestReuses;
          ++counters_.scrapesSucceeded;
          view.lastUpdated = sim_.now();
          finish();
          return;
        }
        fetchSnapshot(cluster, seq, finish);
      },
      finish);
}

void SnapshotScraper::fetchSnapshot(const std::string& cluster,
                                    std::uint64_t seq,
                                    std::function<void()> done) {
  ndn::Name name = streamPrefix(cluster);
  name.appendNumber(seq);
  // Immutable versioned Data: no MustBeFresh, so any Content Store on
  // the path may answer.
  express(
      std::move(name), /*mustBeFresh=*/false,
      [this, cluster, seq, done](const ndn::Data& data) {
        SnapshotView& view = *views_.at(cluster);
        view.seq = seq;
        view.lastUpdated = sim_.now();
        view.everScraped = true;
        applySnapshot(cluster, data.contentAsString());
        ++counters_.snapshotsFetched;
        ++counters_.scrapesSucceeded;
        done();
      },
      done);
}

void SnapshotScraper::start() {
  if (running_) return;
  running_ = true;
  scrapeTick();
}

void SnapshotScraper::stop() {
  running_ = false;
  tick_.cancel();
}

void SnapshotScraper::scrapeTick() {
  if (!running_) return;
  scrapeOnce();
  tick_ = sim_.scheduleAfter(timing_.scrapeInterval, [this] { scrapeTick(); });
}

bool SnapshotScraper::isStale(const std::string& cluster) const {
  auto it = views_.find(cluster);
  if (it == views_.end() || !it->second->everScraped) return true;
  return sim_.now() - it->second->lastUpdated > timing_.freshnessWindow;
}

}  // namespace lidc::telemetry
