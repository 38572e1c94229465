// K-mer hash index over a reference sequence: the seeding stage of the
// MiniBlast aligner. K-mers are 2-bit packed into 64-bit words; k <= 31.
// High-frequency k-mers (repeats) are masked out, as real aligners do.
//
// The index is two flat arrays: an open-addressing table of
// {key, begin, count} slots (linear probing, a power of two at least
// twice the number of reference windows) and one positions array in
// which each k-mer's reference positions lie contiguously, ascending
// (CSR layout). A build makes two linear passes with a rolling 2-bit
// pack: the first counts occurrences, the second places positions.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace lidc::genomics {

class KmerIndex {
 public:
  /// Builds an index of all k-mers of `reference`. K-mers occurring more
  /// than `maxOccurrences` times are masked (repeat masking): they keep
  /// their slot but have no positions.
  KmerIndex(std::string_view reference, unsigned k, std::size_t maxOccurrences = 64);

  [[nodiscard]] unsigned k() const noexcept { return k_; }
  /// Distinct k-mers that are indexed (masked ones excluded).
  [[nodiscard]] std::size_t distinctKmers() const noexcept { return distinct_; }
  [[nodiscard]] std::size_t maskedKmers() const noexcept { return masked_; }

  /// Reference positions at which this packed k-mer occurs, ascending;
  /// empty when the k-mer is absent or masked.
  [[nodiscard]] std::span<const std::uint32_t> find(std::uint64_t packed) const noexcept;

  /// Packs bases[pos .. pos+k) into a 2-bit word; returns false when the
  /// window contains a non-ACGT base.
  static bool pack(std::string_view bases, std::size_t pos, unsigned k,
                   std::uint64_t& out) noexcept;

 private:
  struct Slot {
    std::uint64_t key;
    std::uint32_t begin;  // into positions_
    std::uint32_t count;  // 0 for a masked k-mer
  };
  /// No packed k-mer (at most 62 bits) has every bit set.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  /// The slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(std::uint64_t key) const noexcept;

  unsigned k_;
  unsigned shift_ = 63;  // 64 - log2(slots_.size())
  std::size_t distinct_ = 0;
  std::size_t masked_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> positions_;
};

}  // namespace lidc::genomics
