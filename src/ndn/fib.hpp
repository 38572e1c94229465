// Forwarding Information Base: name prefixes -> next-hop faces with
// costs, resolved by longest-prefix match. Cluster gateways registering
// "/ndn/k8s/compute" into the overlay become FIB next hops here — this
// table is what makes LIDC placement location-independent.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ndn/face.hpp"
#include "ndn/name.hpp"

namespace lidc::ndn {

struct NextHop {
  FaceId face = kInvalidFaceId;
  std::uint64_t cost = 0;
};

class FibEntry {
 public:
  explicit FibEntry(Name prefix) : prefix_(std::move(prefix)) {}

  [[nodiscard]] const Name& prefix() const noexcept { return prefix_; }
  [[nodiscard]] const std::vector<NextHop>& nextHops() const noexcept {
    return next_hops_;
  }

  /// Adds or updates a next hop; keeps the list sorted by ascending cost.
  void addOrUpdateNextHop(FaceId face, std::uint64_t cost);
  void removeNextHop(FaceId face);
  [[nodiscard]] bool hasNextHop(FaceId face) const noexcept;
  [[nodiscard]] bool empty() const noexcept { return next_hops_.empty(); }

 private:
  Name prefix_;
  std::vector<NextHop> next_hops_;
};

class Fib {
 public:
  /// Inserts (or finds) the entry for an exact prefix and adds a next hop.
  FibEntry& insert(const Name& prefix, FaceId face, std::uint64_t cost);

  /// Removes one next hop; drops the entry when it becomes empty.
  void removeNextHop(const Name& prefix, FaceId face);

  /// Removes `face` from every entry (used when a face goes down).
  void removeFaceFromAll(FaceId face);

  /// Longest-prefix-match lookup. nullptr when nothing matches.
  [[nodiscard]] const FibEntry* longestPrefixMatch(const Name& name) const;

  /// Exact-prefix lookup.
  [[nodiscard]] const FibEntry* findExact(const Name& prefix) const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  [[nodiscard]] static NamePrefix keyOf(const Name& prefix) {
    return NamePrefix{&prefix, prefix.size(), prefix.hash()};
  }

  // Keys borrow the entry's own prefix, so entries live behind a stable
  // pointer.
  std::unordered_map<NamePrefix, std::unique_ptr<FibEntry>, NamePrefixHash> entries_;
};

}  // namespace lidc::ndn
