#include "ndn/pit.hpp"

#include <algorithm>

namespace lidc::ndn {

void PitEntry::insertInRecord(FaceId face, std::uint32_t nonce, sim::Time expiry) {
  for (auto& record : in_records_) {
    if (record.face == face) {
      record.nonce = nonce;
      record.expiry = expiry;
      return;
    }
  }
  in_records_.push_back(InRecord{face, nonce, expiry});
}

void PitEntry::insertOutRecord(FaceId face, std::uint32_t nonce, sim::Time sentAt) {
  for (auto& record : out_records_) {
    if (record.face == face) {
      record.nonce = nonce;
      record.lastSent = sentAt;
      record.nacked = false;
      return;
    }
  }
  out_records_.push_back(OutRecord{face, nonce, sentAt, false});
}

OutRecord* PitEntry::findOutRecord(FaceId face) noexcept {
  for (auto& record : out_records_) {
    if (record.face == face) return &record;
  }
  return nullptr;
}

void PitEntry::deleteInRecord(FaceId face) {
  std::erase_if(in_records_, [face](const InRecord& r) { return r.face == face; });
}

bool PitEntry::isDuplicateNonce(std::uint32_t nonce, FaceId face) const noexcept {
  for (const auto& record : in_records_) {
    if (record.nonce == nonce && record.face != face) return true;
  }
  for (const auto& record : out_records_) {
    if (record.nonce == nonce && record.face != face) return true;
  }
  return false;
}

bool PitEntry::allUpstreamsNacked() const noexcept {
  if (out_records_.empty()) return false;
  return std::all_of(out_records_.begin(), out_records_.end(),
                     [](const OutRecord& r) { return r.nacked; });
}

Pit::InsertResult Pit::insert(const Interest& interest, std::size_t nameHash) {
  auto it = entries_.find(makeKey(interest, nameHash));
  if (it != entries_.end()) return {it->second, false};
  auto entry = std::make_shared<PitEntry>(interest, nameHash);
  entries_.emplace(makeKey(entry->interest(), nameHash), entry);
  return {entry, true};
}

std::shared_ptr<PitEntry> Pit::find(const Interest& interest) const {
  auto it = entries_.find(makeKey(interest, interest.name().hash()));
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<PitEntry>> Pit::findMatches(const Data& data,
                                                        std::size_t& nameHash) const {
  std::vector<std::shared_ptr<PitEntry>> matches;
  // Exact-name entries (CanBePrefix false or true), then every proper
  // prefix with CanBePrefix set. Probing prefixes by their hash keeps
  // this O(name length) rather than O(table size), with no copies.
  const Name& dataName = data.name();
  thread_local std::vector<std::size_t> hashes;
  dataName.prefixHashes(hashes);
  nameHash = hashes.back();
  for (std::size_t len = 0; len <= dataName.size(); ++len) {
    const NamePrefix probe{&dataName, len, hashes[len]};
    const bool exact = len == dataName.size();
    for (const bool mustBeFresh : {false, true}) {
      if (exact) {
        auto it = entries_.find(Key{probe, false, mustBeFresh});
        if (it != entries_.end()) matches.push_back(it->second);
      }
      auto it = entries_.find(Key{probe, true, mustBeFresh});
      if (it != entries_.end()) matches.push_back(it->second);
    }
  }
  return matches;
}

void Pit::erase(const std::shared_ptr<PitEntry>& entry) {
  if (!entry) return;
  entries_.erase(makeKey(entry->interest(), entry->nameHash()));
}

}  // namespace lidc::ndn
