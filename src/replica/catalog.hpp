// Replica catalog — the authoritative per-cluster map of which named
// datasets this cluster's lake holds, in which state, published through
// the named-snapshot protocol (telemetry/snapshot.hpp):
//
//   /ndn/k8s/replica/<cluster>/_map    -> "seq=N;generated=<ns>"
//   /ndn/k8s/replica/<cluster>/<seq>   -> sorted "dataset=...;bytes=...;
//                                         version=...;state=..." lines
//
// A new seq is cut only when the map's revision moved, so any number of
// directories resolve "who has /ndn/k8s/data/X" from cached Data.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "datalake/object_store.hpp"
#include "ndn/forwarder.hpp"
#include "telemetry/snapshot.hpp"

namespace lidc::replica {

/// Root of the replica-management namespace.
inline const ndn::Name kReplicaPrefix{"/ndn/k8s/replica"};
/// Manifest component under /ndn/k8s/replica/<cluster>.
inline constexpr const char* kReplicaMapComponent = "_map";

/// Lifecycle of one (dataset, cluster) replica.
enum class ReplicaState {
  kStaging,  // transfer in flight; bytes not yet servable
  kReady,    // servable from this lake
  kStale,    // held bytes are suspect (e.g. gray cluster); don't count
  kLost,     // cluster/lake died with the bytes
};

[[nodiscard]] std::string_view replicaStateName(ReplicaState state) noexcept;
[[nodiscard]] std::optional<ReplicaState> parseReplicaState(
    std::string_view text) noexcept;

struct ReplicaEntry {
  std::uint64_t bytes = 0;
  std::uint64_t version = 0;  // bumped on every mutation of this entry
  ReplicaState state = ReplicaState::kStaging;
};

class ReplicaCatalog : public telemetry::SnapshotPublisher {
 public:
  /// Attaches to the cluster's gateway forwarder, registering
  /// /ndn/k8s/replica/<cluster> toward a new AppFace.
  ReplicaCatalog(ndn::Forwarder& forwarder, std::string clusterName);

  /// Upserts a replica record (bumps the entry version on change).
  void record(const ndn::Name& dataset, std::uint64_t bytes, ReplicaState state);
  void markStaging(const ndn::Name& dataset, std::uint64_t expectedBytes = 0);
  void markReady(const ndn::Name& dataset, std::uint64_t bytes);
  void markLost(const ndn::Name& dataset);
  void erase(const ndn::Name& dataset);

  /// Records every object the store currently holds under `prefix` as a
  /// ready replica — how a seeded lake announces its initial contents.
  void syncFromStore(const datalake::ObjectStore& store, const ndn::Name& prefix);

  [[nodiscard]] const ReplicaEntry* entry(const ndn::Name& dataset) const;
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Deterministic snapshot text (sorted by dataset URI).
  [[nodiscard]] std::string exportMap() const;
  /// Bumped on every mutation; snapshot seq advances only when this moved.
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }

  [[nodiscard]] const std::string& clusterName() const noexcept {
    return cluster_name_;
  }

 private:
  std::string cluster_name_;
  std::map<std::string, ReplicaEntry> entries_;  // dataset URI -> entry
  std::uint64_t revision_ = 0;
};

}  // namespace lidc::replica
