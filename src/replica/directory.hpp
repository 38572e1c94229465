// Replica directory — the consumer side of the replica plane. An ops
// host (or gateway) scrapes every watched cluster's catalog through
// the named-snapshot protocol (telemetry/snapshot.hpp) and answers
// "which clusters hold /ndn/k8s/data/X?" from the merged view. A
// blacked-out cluster ages into stale after its freshness window, so
// its replicas stop counting toward replication factors instead of
// wedging the directory.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ndn/forwarder.hpp"
#include "replica/catalog.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace lidc::replica {

class ReplicaDirectory : public telemetry::SnapshotScraper {
 public:
  /// One cluster's latest scraped replica map.
  struct ClusterMap : telemetry::SnapshotView {
    std::map<std::string, ReplicaEntry> entries;  // dataset URI -> entry
  };

  explicit ReplicaDirectory(ndn::Forwarder& forwarder);

  void watchCluster(const std::string& cluster);

  [[nodiscard]] const ClusterMap* view(const std::string& cluster) const;

  /// Clusters currently holding a ready replica of the dataset, from
  /// non-stale views only, sorted by cluster name (deterministic).
  [[nodiscard]] std::vector<std::string> holders(const ndn::Name& dataset) const;
  [[nodiscard]] std::size_t replicationFactor(const ndn::Name& dataset) const {
    return holders(dataset).size();
  }
  /// Size of the dataset per any ready replica (nullopt when unknown).
  [[nodiscard]] std::optional<std::uint64_t> bytesOf(
      const ndn::Name& dataset) const;

  /// Union of all dataset URIs across non-stale views, sorted.
  [[nodiscard]] std::vector<std::string> knownDatasets() const;

  /// Exports the lidc_replica_directory_* scrape counters into
  /// `registry`, plus the stale-cluster gauge read at snapshot time; the
  /// series keep their last values once the directory is gone.
  void attachTelemetry(telemetry::MetricsRegistry& registry);

 private:
  void applySnapshot(const std::string& cluster, std::string text) override;
  /// The cluster's entry for `uri` when its view is fresh and the
  /// replica ready, else null.
  [[nodiscard]] const ReplicaEntry* readyEntry(const std::string& cluster,
                                               const std::string& uri) const;

  std::map<std::string, ClusterMap> views_;
  telemetry::CollectorHandle collector_;
};

/// Parses one catalog snapshot ("dataset=...;bytes=...;version=...;
/// state=..." lines) into a dataset-URI -> entry map. Malformed lines
/// are skipped.
[[nodiscard]] std::map<std::string, ReplicaEntry> parseReplicaMap(
    std::string_view text);

}  // namespace lidc::replica
