// Dead Nonce List, per the NFD design: remembers (name, nonce) pairs of
// recently satisfied or expired Interests so that a looping copy that
// arrives *after* its PIT entry is gone is still detected as a duplicate
// instead of being forwarded again. A fixed-capacity FIFO ring of
// 64-bit hashes with an open-addressing index over it, so recording a
// nonce allocates nothing once the ring is full.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ndn/name.hpp"

namespace lidc::ndn {

class DeadNonceList {
 public:
  explicit DeadNonceList(std::size_t capacity = 8192) : capacity_(capacity) {}

  void add(const Name& name, std::uint32_t nonce) { add(name.hash(), nonce); }
  /// As add(name, nonce), given name.hash() already computed.
  void add(std::size_t nameHash, std::uint32_t nonce);

  [[nodiscard]] bool has(const Name& name, std::uint32_t nonce) const {
    return has(name.hash(), nonce);
  }
  [[nodiscard]] bool has(std::size_t nameHash, std::uint32_t nonce) const;

  [[nodiscard]] std::size_t size() const noexcept { return fifo_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  static std::uint64_t hashOf(std::size_t nameHash, std::uint32_t nonce) noexcept {
    std::uint64_t h = nameHash;
    h ^= 0x9e3779b97f4a7c15ULL + nonce + (h << 6) + (h >> 2);
    return h;
  }
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) &
           (slots_.size() - 1);
  }
  /// Indexes / unindexes the record at FIFO position `pos`.
  void link(std::size_t pos);
  void unlink(std::size_t pos);
  /// Doubles the index (at least 16 slots) and re-links every record.
  void grow();

  std::size_t capacity_;
  /// The last `capacity_` records; once full, a ring whose oldest
  /// record sits at `oldest_`. Duplicates are kept, one per add().
  std::vector<std::uint64_t> fifo_;
  std::size_t oldest_ = 0;
  /// Linear-probing index over fifo_: a slot holds a FIFO position + 1
  /// (0 = empty). At most half the slots are used.
  std::vector<std::uint32_t> slots_;
};

}  // namespace lidc::ndn
