// Dead Nonce List, per the NFD design: remembers (name, nonce) pairs of
// recently satisfied or expired Interests so that a looping copy that
// arrives *after* its PIT entry is gone is still detected as a duplicate
// instead of being forwarded again. A fixed-capacity FIFO ring of
// 64-bit hashes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>

#include "ndn/name.hpp"

namespace lidc::ndn {

class DeadNonceList {
 public:
  explicit DeadNonceList(std::size_t capacity = 8192) : capacity_(capacity) {}

  void add(const Name& name, std::uint32_t nonce) { add(name.hash(), nonce); }
  /// As add(name, nonce), given name.hash() already computed.
  void add(std::size_t nameHash, std::uint32_t nonce) {
    if (capacity_ == 0) return;
    const std::uint64_t entry = hashOf(nameHash, nonce);
    auto [it, inserted] = counts_.try_emplace(entry, 0);
    ++it->second;
    fifo_.push_back(entry);
    while (fifo_.size() > capacity_) {
      const std::uint64_t victim = fifo_.front();
      fifo_.pop_front();
      auto victimIt = counts_.find(victim);
      if (victimIt != counts_.end() && --victimIt->second == 0) {
        counts_.erase(victimIt);
      }
    }
  }

  [[nodiscard]] bool has(const Name& name, std::uint32_t nonce) const {
    return has(name.hash(), nonce);
  }
  [[nodiscard]] bool has(std::size_t nameHash, std::uint32_t nonce) const {
    return counts_.count(hashOf(nameHash, nonce)) > 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return fifo_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  static std::uint64_t hashOf(std::size_t nameHash, std::uint32_t nonce) noexcept {
    std::uint64_t h = nameHash;
    h ^= 0x9e3779b97f4a7c15ULL + nonce + (h << 6) + (h >> 2);
    return h;
  }

  std::size_t capacity_;
  std::deque<std::uint64_t> fifo_;
  // Reference counts handle hash collisions between live FIFO slots.
  std::unordered_map<std::uint64_t, std::uint32_t> counts_;
};

}  // namespace lidc::ndn
