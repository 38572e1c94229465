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
#include <list>
#include <optional>
#include <set>

#include "ndn/packet.hpp"
#include "sim/time.hpp"

namespace lidc::ndn {

class ContentStore {
 public:
  explicit ContentStore(std::size_t capacity = 4096) : capacity_(capacity) {}

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
  // Each entry stores its name once, inside its Data. Entries live in
  // the LRU list (front = most recently used); the ordered index holds
  // list iterators sorted by that name, which is what CanBePrefix
  // lookups scan.
  struct Entry;
  using LruList = std::list<Entry>;
  struct ByName {
    using is_transparent = void;
    bool operator()(LruList::iterator a, LruList::iterator b) const noexcept;
    bool operator()(LruList::iterator a, const Name& b) const noexcept;
    bool operator()(const Name& a, LruList::iterator b) const noexcept;
  };
  using Index = std::set<LruList::iterator, ByName>;
  struct Entry {
    Data data;  // never renamed while indexed
    sim::Time arrival;
    Index::iterator indexed;
  };

  void touch(LruList::iterator it);
  void erase(Index::iterator it);
  void evictIfNeeded();

  [[nodiscard]] bool isFreshEnough(const Entry& entry, const Interest& interest,
                                   sim::Time now) const noexcept;

  std::size_t capacity_;
  LruList lru_;
  Index index_;
  bool verify_inserts_ = true;
  bool serve_stale_ = false;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t poisoned_rejects_ = 0;
  std::uint64_t poisoned_evictions_ = 0;
};

}  // namespace lidc::ndn
