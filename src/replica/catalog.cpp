#include "replica/catalog.hpp"

namespace lidc::replica {

std::string_view replicaStateName(ReplicaState state) noexcept {
  switch (state) {
    case ReplicaState::kStaging: return "staging";
    case ReplicaState::kReady: return "ready";
    case ReplicaState::kStale: return "stale";
    case ReplicaState::kLost: return "lost";
  }
  return "unknown";
}

std::optional<ReplicaState> parseReplicaState(std::string_view text) noexcept {
  if (text == "staging") return ReplicaState::kStaging;
  if (text == "ready") return ReplicaState::kReady;
  if (text == "stale") return ReplicaState::kStale;
  if (text == "lost") return ReplicaState::kLost;
  return std::nullopt;
}

ReplicaCatalog::ReplicaCatalog(ndn::Forwarder& forwarder, std::string clusterName)
    : SnapshotPublisher(forwarder, ndn::Name(kReplicaPrefix).append(clusterName),
                        "app://replica-catalog/" + clusterName,
                        kReplicaMapComponent,
                        /*snapshotInterval=*/sim::Duration()),
      cluster_name_(std::move(clusterName)) {
  addStream("", [this] { return exportMap(); }, [this] { return revision_; });
}

void ReplicaCatalog::record(const ndn::Name& dataset, std::uint64_t bytes,
                            ReplicaState state) {
  ReplicaEntry& entry = entries_[dataset.toUri()];
  if (entry.version != 0 && entry.bytes == bytes && entry.state == state) return;
  entry.bytes = bytes;
  entry.state = state;
  ++entry.version;
  ++revision_;
}

void ReplicaCatalog::markStaging(const ndn::Name& dataset,
                                 std::uint64_t expectedBytes) {
  record(dataset, expectedBytes, ReplicaState::kStaging);
}

void ReplicaCatalog::markReady(const ndn::Name& dataset, std::uint64_t bytes) {
  record(dataset, bytes, ReplicaState::kReady);
}

void ReplicaCatalog::markLost(const ndn::Name& dataset) {
  auto it = entries_.find(dataset.toUri());
  if (it == entries_.end()) return;
  record(dataset, it->second.bytes, ReplicaState::kLost);
}

void ReplicaCatalog::erase(const ndn::Name& dataset) {
  if (entries_.erase(dataset.toUri()) > 0) ++revision_;
}

void ReplicaCatalog::syncFromStore(const datalake::ObjectStore& store,
                                   const ndn::Name& prefix) {
  for (const ndn::Name& name : store.list(prefix)) {
    const auto size = store.sizeOf(name);
    if (size) markReady(name, *size);
  }
}

const ReplicaEntry* ReplicaCatalog::entry(const ndn::Name& dataset) const {
  auto it = entries_.find(dataset.toUri());
  return it == entries_.end() ? nullptr : &it->second;
}

std::string ReplicaCatalog::exportMap() const {
  // entries_ is keyed by dataset URI, so iteration is already sorted —
  // the snapshot text is deterministic for a given map state.
  std::string out;
  for (const auto& [uri, entry] : entries_) {
    out += "dataset=" + uri + ";bytes=" + std::to_string(entry.bytes) +
           ";version=" + std::to_string(entry.version) +
           ";state=" + std::string(replicaStateName(entry.state)) + "\n";
  }
  return out;
}

}  // namespace lidc::replica
