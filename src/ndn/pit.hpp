// Pending Interest Table. Records which faces asked for which names so
// returning Data retraces the Interest path, and aggregates duplicate
// Interests (the mechanism behind NDN's built-in request collapsing,
// which LIDC's result caching leans on).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ndn/face.hpp"
#include "ndn/packet.hpp"
#include "sim/simulator.hpp"

namespace lidc::ndn {

struct InRecord {
  FaceId face = kInvalidFaceId;
  std::uint32_t nonce = 0;
  sim::Time expiry;
};

struct OutRecord {
  FaceId face = kInvalidFaceId;
  std::uint32_t nonce = 0;
  sim::Time lastSent;
  bool nacked = false;
  NackReason nackReason = NackReason::kNone;
};

class PitEntry {
 public:
  explicit PitEntry(Interest interest)
      : interest_(std::move(interest)), name_hash_(interest_.name().hash()) {}
  PitEntry(Interest interest, std::size_t nameHash)
      : interest_(std::move(interest)), name_hash_(nameHash) {}

  [[nodiscard]] const Interest& interest() const noexcept { return interest_; }
  [[nodiscard]] const Name& name() const noexcept { return interest_.name(); }
  /// name().hash(), kept so erasure and Dead Nonce List records never
  /// rehash the name.
  [[nodiscard]] std::size_t nameHash() const noexcept { return name_hash_; }

  [[nodiscard]] std::vector<InRecord>& inRecords() noexcept { return in_records_; }
  [[nodiscard]] const std::vector<InRecord>& inRecords() const noexcept {
    return in_records_;
  }
  [[nodiscard]] std::vector<OutRecord>& outRecords() noexcept { return out_records_; }
  [[nodiscard]] const std::vector<OutRecord>& outRecords() const noexcept {
    return out_records_;
  }

  /// Adds or refreshes the in-record for a downstream face.
  void insertInRecord(FaceId face, std::uint32_t nonce, sim::Time expiry);
  /// Adds or refreshes the out-record for an upstream face.
  void insertOutRecord(FaceId face, std::uint32_t nonce, sim::Time sentAt);
  [[nodiscard]] OutRecord* findOutRecord(FaceId face) noexcept;
  void deleteInRecord(FaceId face);

  /// Loop detection: has this nonce been seen on a *different* face?
  [[nodiscard]] bool isDuplicateNonce(std::uint32_t nonce, FaceId face) const noexcept;

  /// True once the Interest has been forwarded upstream at least once.
  [[nodiscard]] bool hasOutRecords() const noexcept { return !out_records_.empty(); }

  /// True when every out-record has been nacked (no viable upstream left).
  [[nodiscard]] bool allUpstreamsNacked() const noexcept;

  sim::EventHandle expiryTimer;
  /// Retransmission attempts made by the strategy for this entry.
  int retxCount = 0;

 private:
  Interest interest_;
  std::size_t name_hash_;
  std::vector<InRecord> in_records_;
  std::vector<OutRecord> out_records_;
};

/// The table itself, keyed by (name, canBePrefix, mustBeFresh).
class Pit {
 public:
  struct InsertResult {
    std::shared_ptr<PitEntry> entry;
    bool isNew = false;
  };

  /// Finds or creates the entry for this Interest; `nameHash` is
  /// interest.name().hash(), computed once by the caller.
  InsertResult insert(const Interest& interest, std::size_t nameHash);
  InsertResult insert(const Interest& interest) {
    return insert(interest, interest.name().hash());
  }

  /// Finds the entry for this exact Interest (nullptr if absent).
  [[nodiscard]] std::shared_ptr<PitEntry> find(const Interest& interest) const;

  /// All entries that `data` satisfies (exact name, or prefix when the
  /// Interest allows it). Sets `nameHash` to data.name().hash(), the
  /// last of the prefix hashes the probes compute.
  [[nodiscard]] std::vector<std::shared_ptr<PitEntry>> findMatches(
      const Data& data, std::size_t& nameHash) const;
  [[nodiscard]] std::vector<std::shared_ptr<PitEntry>> findMatches(
      const Data& data) const {
    std::size_t nameHash = 0;
    return findMatches(data, nameHash);
  }

  void erase(const std::shared_ptr<PitEntry>& entry);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  // A key borrows its name: stored keys point at the entry's own
  // Interest name, probes at a prefix of the Data name being matched.
  struct Key {
    NamePrefix name;
    bool canBePrefix;
    bool mustBeFresh;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return k.name.hash ^ (k.canBePrefix ? 0x9e3779b9U : 0U) ^
             (k.mustBeFresh ? 0x85ebca6bU : 0U);
    }
  };
  static Key makeKey(const Interest& interest, std::size_t nameHash) {
    return Key{NamePrefix{&interest.name(), interest.name().size(), nameHash},
               interest.canBePrefix(), interest.mustBeFresh()};
  }

  std::unordered_map<Key, std::shared_ptr<PitEntry>, KeyHash> entries_;
};

}  // namespace lidc::ndn
