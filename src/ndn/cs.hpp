// Content Store: the forwarder's in-network cache of Data packets with
// LRU eviction and freshness semantics. This is the substrate for
// LIDC's result caching (paper SVII): identical compute requests are
// satisfied from the CS without re-executing the job.
//
// Integrity policy (gray-failure defense): a Data packet that carries a
// signature failing verification is *poisoned* — it is rejected at
// admission and, if one ever got in (e.g. verification was toggled off),
// evicted on lookup instead of served. Unsigned Data is admitted
// unchanged: it carries no integrity information, and end hosts that
// care verify end-to-end.
#pragma once

#include <cstdint>
#include <optional>
#include <set>

#include "ndn/packet.hpp"
#include "sim/time.hpp"

namespace lidc::ndn {

class ContentStore {
 public:
  explicit ContentStore(std::size_t capacity = 4096) : capacity_(capacity) {}
  // The LRU list points into the index's nodes.
  ContentStore(const ContentStore&) = delete;
  ContentStore& operator=(const ContentStore&) = delete;

  /// Inserts (or refreshes) a Data packet observed at time `now`.
  /// Poisoned packets (signed but failing verify()) are rejected and
  /// counted while verification is enabled.
  void insert(const Data& data, sim::Time now);

  /// Looks up a match for the Interest. Exact-name match, or the
  /// lexicographically smallest name under the prefix when CanBePrefix.
  /// MustBeFresh requires now < arrival + freshnessPeriod. Entries whose
  /// digest matches the Interest's excludeDigest hint are skipped;
  /// poisoned entries are evicted rather than served.
  [[nodiscard]] std::optional<Data> find(const Interest& interest, sim::Time now);

  void erase(const Name& name);
  void clear();

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  void setCapacity(std::size_t capacity);

  /// Admission-time integrity checking (on by default). Benches turn it
  /// off to measure the undefended baseline.
  void setVerification(bool enabled) noexcept { verify_inserts_ = enabled; }
  [[nodiscard]] bool verificationEnabled() const noexcept { return verify_inserts_; }

  /// Chaos hook (kStaleReplay): a buggy cache that keeps serving entries
  /// past their freshness, ignoring MustBeFresh.
  void setServeStale(bool on) noexcept { serve_stale_ = on; }
  [[nodiscard]] bool servesStale() const noexcept { return serve_stale_; }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t poisonedRejects() const noexcept {
    return poisoned_rejects_;
  }
  [[nodiscard]] std::uint64_t poisonedEvictions() const noexcept {
    return poisoned_evictions_;
  }

 private:
  // Each entry is one node of the name-ordered index, which is what
  // CanBePrefix lookups scan, and stores its name once, inside its Data.
  // The LRU order is a doubly linked list threaded through those nodes,
  // so an insert allocates one node.
  struct Entry {
    Entry(const Data& d, sim::Time t) : data(d), arrival(t) {}
    // Mutable because the index orders by name alone: a refresh swaps in
    // a Data of the same name, and the LRU links are not keys.
    mutable Data data;
    mutable sim::Time arrival;
    mutable const Entry* newer = nullptr;
    mutable const Entry* older = nullptr;
  };
  struct ByName {
    using is_transparent = void;
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.data.name() < b.data.name();
    }
    bool operator()(const Entry& a, const Name& b) const noexcept {
      return a.data.name() < b;
    }
    bool operator()(const Name& a, const Entry& b) const noexcept {
      return a < b.data.name();
    }
  };
  using Index = std::set<Entry, ByName>;

  /// Makes `entry` the most recently used.
  void touch(const Entry& entry);
  void pushFront(const Entry& entry);
  void unlinkLru(const Entry& entry);
  void erase(Index::iterator it);
  void evictIfNeeded();

  [[nodiscard]] bool isFreshEnough(const Entry& entry, const Interest& interest,
                                   sim::Time now) const noexcept;

  std::size_t capacity_;
  Index index_;
  const Entry* lru_head_ = nullptr;  // most recently used
  const Entry* lru_tail_ = nullptr;  // next to evict
  bool verify_inserts_ = true;
  bool serve_stale_ = false;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t poisoned_rejects_ = 0;
  std::uint64_t poisoned_evictions_ = 0;
};

}  // namespace lidc::ndn
