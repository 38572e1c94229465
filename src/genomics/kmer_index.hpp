// K-mer hash index over a reference sequence: the seeding stage of the
// MiniBlast aligner. K-mers are 2-bit packed into 64-bit words; k <= 31.
// High-frequency k-mers (repeats) are masked out, as real aligners do.
//
// The index is two flat arrays: an open-addressing table of 8-byte
// {key, begin} slots (linear probing, twice as many as the reference
// has windows, the home slot picked by multiply-shift range reduction,
// so the resident size tracks the reference length) and one positions
// array in which each k-mer's reference positions lie contiguously,
// ascending (CSR layout).
// Ranges are laid out in slot order, so a k-mer's range ends where the
// next slot's begins; one sentinel slot past the table closes the last.
// A slot holds the key's low 32 bits; when 2k > 30 the high 32 bits live
// in a side array. A build makes two linear passes with a rolling 2-bit
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
  /// than `maxOccurrences` times are masked (repeat masking): they have
  /// no positions.
  KmerIndex(std::string_view reference, unsigned k, std::size_t maxOccurrences = 64);

  [[nodiscard]] unsigned k() const noexcept { return k_; }
  /// Distinct k-mers that are indexed (masked ones excluded).
  [[nodiscard]] std::size_t distinctKmers() const noexcept { return distinct_; }
  [[nodiscard]] std::size_t maskedKmers() const noexcept { return masked_; }
  /// Heap bytes the index keeps resident: slots, high key halves and
  /// positions.
  [[nodiscard]] std::size_t residentBytes() const noexcept;

  /// Reference positions at which this packed k-mer (< 4^k) occurs,
  /// ascending; empty when the k-mer is absent or masked.
  [[nodiscard]] std::span<const std::uint32_t> find(std::uint64_t packed) const noexcept;

  /// Packs bases[pos .. pos+k) into a 2-bit word; returns false when the
  /// window contains a non-ACGT base.
  static bool pack(std::string_view bases, std::size_t pos, unsigned k,
                   std::uint64_t& out) noexcept;

 private:
  struct Slot {
    std::uint32_t key;    // low 32 bits of the packed k-mer
    std::uint32_t begin;  // into positions_; the range ends at the next slot's begin
  };
  /// Tags of empty and masked slots. The tag is the key's high half when
  /// there is one, else the key itself; neither half of a packed k-mer
  /// (at most 62 bits, or 30 without a high half) can take these values.
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::uint32_t kMasked = kEmpty - 1;

  /// The slot holding `key`, or the empty slot where it would go. Probes
  /// pass over masked slots.
  [[nodiscard]] std::size_t probe(std::uint64_t key) const noexcept;
  [[nodiscard]] std::uint32_t tag(std::size_t slot) const noexcept {
    return high_.empty() ? slots_[slot].key : high_[slot];
  }

  unsigned k_;
  std::size_t distinct_ = 0;
  std::size_t masked_ = 0;
  std::vector<Slot> slots_;          // the table plus the sentinel
  std::vector<std::uint32_t> high_;  // key >> 32 per slot; empty when 2k <= 30
  std::vector<std::uint32_t> positions_;
};

}  // namespace lidc::genomics
