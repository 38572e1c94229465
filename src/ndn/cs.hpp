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
#include <vector>

#include "ndn/packet.hpp"
#include "sim/time.hpp"

namespace lidc::ndn {

class ContentStore {
 public:
  explicit ContentStore(std::size_t capacity = 4096) : capacity_(capacity) {}
  // Entries are raw blocks the store owns.
  ContentStore(const ContentStore&) = delete;
  ContentStore& operator=(const ContentStore&) = delete;
  ~ContentStore() { clear(); }

  /// Inserts (or refreshes) a Data packet observed at time `now`.
  /// Poisoned packets (signed but failing verify()) are rejected and
  /// counted while verification is enabled. `nameHash` is
  /// data.name().hash(), which the forwarder already has.
  void insert(const Data& data, std::size_t nameHash, sim::Time now);
  void insert(const Data& data, sim::Time now) {
    insert(data, data.name().hash(), now);
  }

  /// Looks up a match for the Interest. Exact-name match, or the
  /// lexicographically smallest name under the prefix when CanBePrefix.
  /// MustBeFresh requires now < arrival + freshnessPeriod. Entries whose
  /// digest matches the Interest's excludeDigest hint are skipped;
  /// poisoned entries are evicted rather than served. `nameHash` is
  /// interest.name().hash(). A hit rebuilds the Data field for field.
  [[nodiscard]] std::optional<Data> find(const Interest& interest,
                                         std::size_t nameHash, sim::Time now);
  [[nodiscard]] std::optional<Data> find(const Interest& interest, sim::Time now) {
    return find(interest, interest.name().hash(), now);
  }

  void erase(const Name& name);
  void clear();

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
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
  // One heap block per entry: a fixed header (hash chain and LRU links,
  // the Data's native fields) followed by the name's components and the
  // content. Laid out in cs.cpp.
  struct Entry;

  [[nodiscard]] Entry* lookup(const Name& name, std::size_t hash) noexcept;
  /// Links a new entry into its bucket, growing the table as needed.
  void link(Entry* entry);
  /// Unlinks `entry` from its bucket and the LRU list and frees it.
  void erase(Entry* entry) noexcept;
  [[nodiscard]] Entry*& bucket(std::size_t hash) noexcept;
  void rehash(std::size_t buckets);
  /// Makes `entry` the most recently used.
  void touch(Entry* entry) noexcept;
  void pushFront(Entry* entry) noexcept;
  void unlinkLru(Entry* entry) noexcept;
  void evictIfNeeded() noexcept;

  [[nodiscard]] bool isFreshEnough(const Entry& entry, const Interest& interest,
                                   sim::Time now) const noexcept;
  /// Serve decision for a non-poisoned entry: fresh enough and not the
  /// copy the Interest's excludeDigest hint names.
  [[nodiscard]] bool usable(const Entry& entry, const Interest& interest,
                            sim::Time now) const;
  /// Counts a hit, refreshes the entry's recency, and rebuilds its Data.
  [[nodiscard]] Data serve(Entry* entry);
  [[nodiscard]] static Data rebuild(const Entry& entry);

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::vector<Entry*> buckets_;  // power-of-two sized chained hash table
  int bucket_shift_ = 64;        // 64 - log2(buckets_.size())
  Entry* lru_head_ = nullptr;    // most recently used
  Entry* lru_tail_ = nullptr;    // next to evict
  bool verify_inserts_ = true;
  bool serve_stale_ = false;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t poisoned_rejects_ = 0;
  std::uint64_t poisoned_evictions_ = 0;
};

}  // namespace lidc::ndn
