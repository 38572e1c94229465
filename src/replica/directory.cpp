#include "replica/directory.hpp"

#include <algorithm>
#include <set>

#include "common/strings.hpp"

namespace lidc::replica {

std::map<std::string, ReplicaEntry> parseReplicaMap(std::string_view text) {
  std::map<std::string, ReplicaEntry> entries;
  for (auto line : strings::splitSkipEmpty(text, '\n')) {
    std::string uri;
    ReplicaEntry entry;
    bool haveState = false;
    for (auto field : strings::splitSkipEmpty(line, ';')) {
      if (strings::startsWith(field, "dataset=")) {
        uri = std::string(field.substr(8));
      } else if (strings::startsWith(field, "bytes=")) {
        if (auto v = strings::parseUint(field.substr(6))) entry.bytes = *v;
      } else if (strings::startsWith(field, "version=")) {
        if (auto v = strings::parseUint(field.substr(8))) entry.version = *v;
      } else if (strings::startsWith(field, "state=")) {
        if (auto s = parseReplicaState(field.substr(6))) {
          entry.state = *s;
          haveState = true;
        }
      }
    }
    if (!uri.empty() && haveState) entries.emplace(std::move(uri), entry);
  }
  return entries;
}

ReplicaDirectory::ReplicaDirectory(ndn::Forwarder& forwarder)
    : SnapshotScraper(forwarder, "app://replica-directory", /*nonceSeed=*/0x4e5d,
                      kReplicaPrefix, /*stream=*/"", kReplicaMapComponent,
                      telemetry::ScrapeTiming{}) {}

void ReplicaDirectory::watchCluster(const std::string& cluster) {
  watch(cluster, views_[cluster]);
}

void ReplicaDirectory::applySnapshot(const std::string& cluster,
                                     std::string text) {
  views_.at(cluster).entries = parseReplicaMap(text);
}

const ReplicaDirectory::ClusterMap* ReplicaDirectory::view(
    const std::string& cluster) const {
  auto it = views_.find(cluster);
  return it == views_.end() ? nullptr : &it->second;
}

const ReplicaEntry* ReplicaDirectory::readyEntry(const std::string& cluster,
                                                 const std::string& uri) const {
  if (isStale(cluster)) return nullptr;
  const auto& entries = views_.at(cluster).entries;
  auto it = entries.find(uri);
  if (it == entries.end() || it->second.state != ReplicaState::kReady) {
    return nullptr;
  }
  return &it->second;
}

std::vector<std::string> ReplicaDirectory::holders(
    const ndn::Name& dataset) const {
  std::vector<std::string> out;
  const std::string uri = dataset.toUri();
  for (const auto& cluster : watchedClusters()) {
    if (readyEntry(cluster, uri) != nullptr) out.push_back(cluster);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::uint64_t> ReplicaDirectory::bytesOf(
    const ndn::Name& dataset) const {
  const std::string uri = dataset.toUri();
  for (const auto& cluster : watchedClusters()) {
    if (const ReplicaEntry* entry = readyEntry(cluster, uri)) return entry->bytes;
  }
  return std::nullopt;
}

std::vector<std::string> ReplicaDirectory::knownDatasets() const {
  std::set<std::string> uris;
  for (const auto& cluster : watchedClusters()) {
    if (isStale(cluster)) continue;
    for (const auto& [uri, entry] : view(cluster)->entries) uris.insert(uri);
  }
  return {uris.begin(), uris.end()};
}

void ReplicaDirectory::attachTelemetry(telemetry::MetricsRegistry& registry) {
  using telemetry::ScrapeCounters;
  adoptCounter(registry, "lidc_replica_directory_scrapes_total",
               &ScrapeCounters::scrapesStarted);
  adoptCounter(registry, "lidc_replica_directory_scrape_failures_total",
               &ScrapeCounters::scrapesFailed);
  adoptCounter(registry, "lidc_replica_directory_manifest_reuses_total",
               &ScrapeCounters::manifestReuses);
  adoptCounter(registry, "lidc_replica_directory_snapshots_fetched_total",
               &ScrapeCounters::snapshotsFetched);
  collector_ = registry.registerCollector([this, &registry] {
    double stale = 0.0;
    for (const auto& cluster : watchedClusters()) {
      if (isStale(cluster)) stale += 1.0;
    }
    registry.gauge("lidc_replica_directory_stale_clusters").set(stale);
  });
}

}  // namespace lidc::replica
